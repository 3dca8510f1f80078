"""Synthetic data generators with ground-truth variances recorded.

Four generating processes drive the experiment harness: a 3-dimensional
stochastic resonator observed through the sum of its first two coordinates,
well-specified random-walk regressions on i.i.d. or slowly-drifting uniform
designs, and a misspecified variant where the observation switches uniformly
at random between two independently evolving states.

Every generator derives independent PCG64 streams from its integer seed
(design, initial state, state noise, observation noise, mixture), so the
recorded truth can be replayed against the exact noise stream that produced
``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .records import read_table, write_table
from .rng import (
    STREAM_DESIGN,
    STREAM_MIXTURE,
    STREAM_OBS_NOISE,
    STREAM_STATE_NOISE,
    STREAM_THETA0,
    make_rng,
)

WS_Q_MASK = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
MS_CONTRACTION = 0.9
DEFAULT_WALK_VAR = 1e-3
RESONATOR_Q_DIAG = (0.01, 0.0, 0.0001)


class DesignKind(Enum):
    IID = "iid"
    NONIID = "noniid"


@dataclass
class Truth:
    """Per-step generating quantities recorded alongside the observations."""

    sigma2: np.ndarray
    q_diag: np.ndarray
    theta: np.ndarray | None = None
    mix: np.ndarray | None = None


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)
    truth: Truth | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def reflect_unit(z: np.ndarray) -> np.ndarray:
    """Map values outside [0, 1] back inside via ``ceil(z) - z``."""
    return np.where((z >= 0.0) & (z <= 1.0), z, np.ceil(z) - z)


def gen_design(kind: DesignKind, n: int, seed: int, walk_var: float = DEFAULT_WALK_VAR) -> np.ndarray:
    """Covariate matrix ``(n, 5)``: four uniform coordinates plus a constant 1.

    The non-i.i.d. kind random-walks the four uniform coordinates with
    per-step variance ``walk_var``, reflecting excursions back into [0, 1].
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = make_rng(seed, STREAM_DESIGN)
    x = np.empty((n, 5))
    x[:, 4] = 1.0
    if kind is DesignKind.IID:
        x[:, :4] = rng.random((n, 4))
        return x
    x[0, :4] = rng.random(4)
    steps = rng.normal(0.0, math.sqrt(walk_var), size=(n - 1, 4)) if n > 1 else np.empty((0, 4))
    for t in range(1, n):
        x[t, :4] = reflect_unit(x[t - 1, :4] + steps[t - 1])
    return x


def _ws_schedules(n: int) -> tuple[np.ndarray, np.ndarray]:
    t = np.arange(n)
    sigma2 = 1.0 + 0.1 * np.cos(4.0 * np.pi * t / n)
    q_level = 0.25 + 0.2 * np.cos(4.0 * np.pi * t / n)
    return sigma2, q_level[:, None] * WS_Q_MASK[None, :]


def _resolve_schedules(n: int, d: int, sigma2_override, q_diag_override) -> tuple[np.ndarray, np.ndarray]:
    if sigma2_override is None or q_diag_override is None:
        if d != 5:
            raise ValueError("default variance schedules need a 5-dimensional design")
        sigma2, q_diag = _ws_schedules(n)
    if sigma2_override is not None:
        sigma2 = np.asarray(sigma2_override, dtype=float)
        if sigma2.shape != (n,):
            raise ValueError(f"sigma2 override has shape {sigma2.shape}, expected ({n},)")
    if q_diag_override is not None:
        q_diag = np.asarray(q_diag_override, dtype=float)
        if q_diag.shape != (n, d):
            raise ValueError(f"q_diag override has shape {q_diag.shape}, expected ({n}, {d})")
    return sigma2, q_diag


def gen_wellspecified(design: np.ndarray, seed: int, sigma2_override=None, q_diag_override=None) -> Dataset:
    """Random-walk regression with smoothly varying variances.

    ``sigma2 = 1 + 0.1 cos(4 pi t / n)`` and state-noise diagonal
    ``(0.25 + 0.2 cos(4 pi t / n)) * (0,0,1,1,1)``; the state starts from
    N(0, I) and the transition matrix is the identity.
    """
    n, d = design.shape
    sigma2, q_diag = _resolve_schedules(n, d, sigma2_override, q_diag_override)
    theta0 = make_rng(seed, STREAM_THETA0).standard_normal(d)
    state_noise = make_rng(seed, STREAM_STATE_NOISE).standard_normal((n, d)) * np.sqrt(q_diag)
    theta = theta0 + np.cumsum(state_noise, axis=0)
    y = np.einsum("td,td->t", theta, design) + np.sqrt(sigma2) * make_rng(seed, STREAM_OBS_NOISE).standard_normal(n)
    return Dataset(design, y, seed, {"generator": "wellspecified", "n": n},
                   Truth(sigma2, q_diag, theta))


def gen_misspecified(design: np.ndarray, seed: int, sigma2_override=None, q_diag_override=None,
                     theta0=None) -> Dataset:
    """Two-state mixture: the observation picks one of two independent states.

    Both states follow contracting dynamics ``theta_t = 0.9 theta_{t-1} +
    noise`` with the well-specified variance schedules; a fair coin selects
    which state generates each observation. ``theta0`` (when given) seeds
    both branches with the same initial state.
    """
    n, d = design.shape
    sigma2, q_diag = _resolve_schedules(n, d, sigma2_override, q_diag_override)
    if theta0 is not None:
        init = np.tile(np.asarray(theta0, dtype=float), (2, 1))
    else:
        init = make_rng(seed, STREAM_THETA0).standard_normal((2, d))
    noise = make_rng(seed, STREAM_STATE_NOISE).standard_normal((n, 2, d)) * np.sqrt(q_diag)[:, None, :]
    states = np.empty((n, 2, d))
    prev = init
    for t in range(n):
        prev = MS_CONTRACTION * prev + noise[t]
        states[t] = prev
    mix = make_rng(seed, STREAM_MIXTURE).integers(0, 2, size=n)
    theta = states[np.arange(n), mix]
    y = np.einsum("td,td->t", theta, design) + np.sqrt(sigma2) * make_rng(seed, STREAM_OBS_NOISE).standard_normal(n)
    return Dataset(design, y, seed, {"generator": "misspecified", "n": n},
                   Truth(sigma2, q_diag, theta, mix))


def resonator_transition(omega: float = 0.05, dt: float = 0.1) -> np.ndarray:
    c, s = math.cos(omega * dt), math.sin(omega * dt)
    return np.array([
        [1.0, 0.0, 0.0],
        [0.0, c, s / omega],
        [0.0, -omega * s, c],
    ])


def default_resonator_sigma2(n: int) -> np.ndarray:
    """Stand-in observation-variance trajectory: ``log sigma2 = sin(2 pi t / n)``."""
    return np.exp(np.sin(2.0 * np.pi * np.arange(n) / n))


def gen_resonator(n: int, sigma_traj: np.ndarray, seed: int, theta0=None,
                  q_diag=RESONATOR_Q_DIAG) -> Dataset:
    """Stochastic resonator observed through its first two coordinates.

    3-dimensional state with a rotation-style transition, known constant
    state noise ``diag(0.01, 0, 0.0001)``, and per-step observation variance
    ``sigma_traj``. The observation regressor is the constant ``(1, 1, 0)``.
    """
    sigma_traj = np.asarray(sigma_traj, dtype=float)
    if sigma_traj.shape != (n,):
        raise ValueError(f"sigma trajectory has shape {sigma_traj.shape}, expected ({n},)")
    if np.any(sigma_traj <= 0.0):
        raise ValueError("sigma trajectory must be positive")
    K = resonator_transition()
    d = 3
    q = np.asarray(q_diag, dtype=float)
    x = np.tile(np.array([1.0, 1.0, 0.0]), (n, 1))
    if theta0 is not None:
        prev = np.asarray(theta0, dtype=float).copy()
    else:
        prev = make_rng(seed, STREAM_THETA0).standard_normal(d)
    noise = make_rng(seed, STREAM_STATE_NOISE).standard_normal((n, d)) * np.sqrt(q)
    theta = np.empty((n, d))
    for t in range(n):
        prev = K @ prev + noise[t]
        theta[t] = prev
    y = np.einsum("td,td->t", theta, x) + np.sqrt(sigma_traj) * make_rng(seed, STREAM_OBS_NOISE).standard_normal(n)
    return Dataset(x, y, seed, {"generator": "resonator", "n": n},
                   Truth(sigma_traj, np.tile(q, (n, 1)), theta))


def write_dataset_csv(ds: Dataset, path: str | Path) -> None:
    """CSV with header ``t,x1..xd,y[,sigma2,q1..qd,i]``; 17 significant digits."""
    header = ["t"] + [f"x{j + 1}" for j in range(ds.d)] + ["y"]
    columns = [np.arange(ds.n), ds.x, ds.y]
    if ds.truth is not None:
        header += ["sigma2"] + [f"q{j + 1}" for j in range(ds.d)]
        columns += [ds.truth.sigma2, ds.truth.q_diag]
        if ds.truth.mix is not None:
            header.append("i")
            columns.append(ds.truth.mix)
    write_table(path, header, columns)


def read_dataset_csv(path: str | Path) -> Dataset:
    header, values = read_table(path)
    if not len(values):
        raise ValueError(f"{path}: no data rows")
    d = sum(1 for name in header if name.startswith("x") and name[1:].isdigit())
    truth = None
    if "sigma2" in header:
        mix = values[:, 3 + 2 * d].astype(int) if header[-1] == "i" else None
        truth = Truth(values[:, 2 + d].copy(), values[:, 3 + d:3 + 2 * d].copy(), None, mix)
    return Dataset(values[:, 1:1 + d].copy(), values[:, 1 + d].copy(), seed=-1,
                   meta={"generator": "csv", "source": str(path), "n": len(values)}, truth=truth)
