"""Per-step filter trace records and their CSV round trip.

The CSV layout is ``t,y,forecast,forecast_var,residual,a_hat,s,sigma2_eff,
b1..bm,Sigma1..Sigmam,cum_sq_err`` with the latent columns present only for
traces that carry noise-latent beliefs. Floats are written with 17
significant digits so values round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BASE_COLUMNS = ["t", "y", "forecast", "forecast_var", "residual", "a_hat", "s", "sigma2_eff"]


@dataclass
class StepRecord:
    """One filtering step: pre-update forecast plus post-update beliefs."""

    t: int
    y: float
    forecast: float
    forecast_var: float
    residual: float
    a_hat: float
    s: float
    sigma2_eff: float
    b_hat: np.ndarray | None
    sigma_diag: np.ndarray | None
    cum_sq_err: float
    theta: np.ndarray | None = field(default=None, repr=False)
    cov: np.ndarray | None = field(default=None, repr=False)


def fill_cum_sq_err(trace: list[StepRecord]) -> list[StepRecord]:
    """Running squared residual over the steps past ``n // 2``; 0 before them."""
    half, cum = len(trace) // 2, 0.0
    for t, rec in enumerate(trace):
        if t >= half:
            cum += rec.residual * rec.residual
        rec.cum_sq_err = cum
    return trace


def fmt(v: float) -> str:
    return f"{v:.17g}"


def write_trace_csv(records: list[StepRecord], path: str | Path) -> None:
    m = 0
    if records and records[0].b_hat is not None:
        m = len(records[0].b_hat)
    header = list(BASE_COLUMNS)
    header += [f"b{j + 1}" for j in range(m)]
    header += [f"Sigma{j + 1}" for j in range(m)]
    header.append("cum_sq_err")
    lines = [",".join(header)]
    for r in records:
        row = [str(r.t), fmt(r.y), fmt(r.forecast), fmt(r.forecast_var), fmt(r.residual),
               fmt(r.a_hat), fmt(r.s), fmt(r.sigma2_eff)]
        if m:
            row += [fmt(v) for v in r.b_hat]
            row += [fmt(v) for v in r.sigma_diag]
        row.append(fmt(r.cum_sq_err))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace_csv(path: str | Path) -> list[StepRecord]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    m = sum(1 for name in header if name.startswith("b") and name[1:].isdigit())
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        vals = [float(p) for p in parts[1:]]
        b_hat = np.array(vals[7:7 + m]) if m else None
        sigma_diag = np.array(vals[7 + m:7 + 2 * m]) if m else None
        records.append(StepRecord(
            t=int(parts[0]), y=vals[0], forecast=vals[1], forecast_var=vals[2],
            residual=vals[3], a_hat=vals[4], s=vals[5], sigma2_eff=vals[6],
            b_hat=b_hat, sigma_diag=sigma_diag, cum_sq_err=vals[7 + 2 * m],
        ))
    return records
