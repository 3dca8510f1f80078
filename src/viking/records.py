"""Filter traces, and every CSV file the package writes or reads.

A trace holds one array per column, with a per-step record as the row view.
Trace, dataset, summary and sweep files all go through :func:`write_table`,
:func:`read_table` and :func:`write_lines`: comma-separated, one header line,
integer columns as integers and floats with 17 significant digits, so values
round-trip exactly. The trace layout is ``t,y,forecast,forecast_var,
residual,a_hat,s,sigma2_eff,b1..bm,Sigma1..Sigmam,cum_sq_err`` with the
latent columns present only for traces that carry noise-latent beliefs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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


@dataclass(eq=False)
class Trace:
    """A run's per-step outputs, one array per :class:`StepRecord` field.

    Scalar columns have shape ``(n,)``; ``b_hat``/``sigma_diag`` are
    ``(n, m)`` or ``None`` for traces without noise latents, and the state
    columns ``theta`` ``(n, d)`` and ``cov`` ``(n, d, d)`` are optional.
    ``trace[t]`` is the :class:`StepRecord` of step ``t``; slices are traces.
    """

    t: np.ndarray
    y: np.ndarray
    forecast: np.ndarray
    forecast_var: np.ndarray
    residual: np.ndarray
    a_hat: np.ndarray
    s: np.ndarray
    sigma2_eff: np.ndarray
    b_hat: np.ndarray | None
    sigma_diag: np.ndarray | None
    cum_sq_err: np.ndarray
    theta: np.ndarray | None = field(default=None, repr=False)
    cov: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_records(cls, records: list[StepRecord]) -> "Trace":
        """The columns of a run's records; ``cum_sq_err`` is recomputed from the residuals."""
        trace = cls(*(None if records and getattr(records[0], name) is None
                      else np.array([getattr(r, name) for r in records], dtype=int if name == "t" else float)
                      for name in _FIELDS))
        trace.cum_sq_err = cum_sq_err(trace.residual)
        return trace

    def columns(self) -> list[np.ndarray | None]:
        return [getattr(self, name) for name in _FIELDS]

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Trace(*(None if c is None else c[key] for c in self.columns()))
        return StepRecord(*(None if c is None else c[key] if c.ndim > 1 else c[key].item()
                            for c in self.columns()))

    def __iter__(self):
        # scalar columns as Python lists once, not one item per row and column
        cols = [None if c is None else c.tolist() if c.ndim == 1 else c for c in self.columns()]
        return (StepRecord(*(None if c is None else c[i] for c in cols)) for i in range(len(self)))

    def __eq__(self, other) -> bool:
        """Row by row, so a trace also equals a list of the same records."""
        if not isinstance(other, (Trace, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            all(np.array_equal(u, v) for u, v in zip(vars(a).values(), vars(b).values()))
            for a, b in zip(self, other))


_FIELDS = tuple(f.name for f in fields(Trace))


def cum_sq_err(residual: np.ndarray) -> np.ndarray:
    """Running squared residual over the steps past ``n // 2``, 0 before them.

    Runs along the first (step) axis, so a ``(n, B)`` block of residuals
    gives each of its B columns its own running sum.
    """
    out = np.zeros(residual.shape)
    tail = residual[len(residual) // 2:]
    np.cumsum(tail * tail, axis=0, out=out[len(residual) // 2:])
    return out


def split_traces(steps: np.ndarray, y: np.ndarray, forecast: np.ndarray, forecast_var: np.ndarray,
                 a_hat: np.ndarray, s: np.ndarray, sigma2_eff: np.ndarray, b_hat=None, sigma_diag=None,
                 theta=None, cov=None) -> list[Trace]:
    """One trace per filter from step-major ``(n, B, ...)`` columns, adding
    each filter's residual and running second-half error."""
    residual = y - forecast
    cum = cum_sq_err(residual)
    columns = (y, forecast, forecast_var, residual, a_hat, s, sigma2_eff, b_hat, sigma_diag, cum, theta, cov)
    return [Trace(steps, *(None if c is None else c[:, b] for c in columns)) for b in range(forecast.shape[1])]


def fmt(v: float) -> str:
    return f"{v:.17g}"


def write_lines(path: str | Path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_table(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """A header line, then row ``i`` of every ``(n,)`` or ``(n, k)`` column;
    integer columns as ``%d``, floats as ``%.17g`` (the same digits as :func:`fmt`)."""
    columns = [np.asarray(c) for c in columns]
    row_fmt = ",".join("%d" if c.dtype.kind in "iu" else "%.17g"
                       for c in columns for _ in range(1 if c.ndim == 1 else c.shape[1]))
    rows = np.column_stack(columns).tolist()
    write_lines(path, [",".join(header)] + [row_fmt % tuple(row) for row in rows])


def read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The header and the ``(n, k)`` values of a file :func:`write_table` wrote."""
    header, *rows = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = header.split(",")
    values = np.array([[float(p) for p in row.split(",")] for row in rows]).reshape(-1, len(header))
    return header, values


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    m = 0 if trace.b_hat is None else trace.b_hat.shape[1]
    header = BASE_COLUMNS + [f"b{j + 1}" for j in range(m)] + [f"Sigma{j + 1}" for j in range(m)]
    columns = [trace.t, trace.y, trace.forecast, trace.forecast_var, trace.residual,
               trace.a_hat, trace.s, trace.sigma2_eff]
    if m:
        columns += [trace.b_hat, trace.sigma_diag]
    write_table(path, header + ["cum_sq_err"], columns + [trace.cum_sq_err])


def read_trace_csv(path: str | Path) -> Trace:
    header, vals = read_table(path)
    m = sum(1 for name in header if name.startswith("b") and name[1:].isdigit())
    col = dict(zip(BASE_COLUMNS, vals.T))
    return Trace(
        t=vals[:, 0].astype(int), y=col["y"], forecast=col["forecast"],
        forecast_var=col["forecast_var"], residual=col["residual"], a_hat=col["a_hat"],
        s=col["s"], sigma2_eff=col["sigma2_eff"],
        b_hat=vals[:, 8:8 + m] if m else None, sigma_diag=vals[:, 8 + m:8 + 2 * m] if m else None,
        cum_sq_err=vals[:, 8 + 2 * m],
    )
