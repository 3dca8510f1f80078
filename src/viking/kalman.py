"""Standard Kalman filter for known (possibly time-varying) noise variances.

Serves as the exact baseline the adaptive filter collapses to when its
variance beliefs are degenerate, and as the known-variance oracle in the
synthetic experiments. The posterior update is written as a rank-one
correction of the propagated prior covariance, shared verbatim with the
adaptive filter's state update so the two paths agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import sym
from .records import StepRecord, fill_cum_sq_err


@dataclass
class GaussianState:
    """Gaussian state belief: mean vector and symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def copy(self) -> "GaussianState":
        return GaussianState(self.mean.copy(), self.cov.copy())

    def validate(self, sym_rtol: float = 1e-12, eig_rtol: float = 1e-10) -> None:
        scale = max(float(np.abs(self.cov).max()), 1e-300)
        if float(np.abs(self.cov - self.cov.T).max()) > sym_rtol * scale:
            raise ValueError("covariance is not symmetric within tolerance")
        trace = float(np.trace(self.cov))
        if float(np.linalg.eigvalsh(sym(self.cov)).min()) < -eig_rtol * max(trace, 1e-300):
            raise ValueError("covariance has a significantly negative eigenvalue")


def rank_one_update(prior_mean: np.ndarray, prior_cov: np.ndarray, sigma_eff: float,
                    x: np.ndarray, y: float) -> GaussianState:
    """Posterior from one scalar observation ``y = x.theta + noise(sigma_eff)``."""
    cx = prior_cov @ x
    denom = float(x @ cx) + sigma_eff
    post_cov = sym(prior_cov - cx[:, None] * (cx / denom))
    resid = y - float(x @ prior_mean)
    post_mean = prior_mean + (post_cov @ x) * (resid / sigma_eff)
    return GaussianState(post_mean, post_cov)


def _check_psd(Q: np.ndarray) -> None:
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"state-noise matrix must be square, got shape {Q.shape}")
    scale = max(float(np.abs(Q).max()), 1.0)
    if float(np.abs(Q - Q.T).max()) > 1e-10 * scale:
        raise ValueError("state-noise matrix is not symmetric")
    if float(np.linalg.eigvalsh(sym(Q)).min()) < -1e-10 * scale:
        raise ValueError("state-noise matrix is not positive semidefinite")


def kalman_step(state: GaussianState, K: np.ndarray, Q: np.ndarray, sigma2: float,
                x: np.ndarray, y: float) -> tuple[GaussianState, float, float]:
    """One predict/update cycle; returns (posterior, prediction, pred_var)."""
    if sigma2 <= 0.0:
        raise ValueError(f"observation variance must be > 0, got {sigma2}")
    _check_psd(Q)
    prior_mean = K @ state.mean
    prior_cov = sym(K @ state.cov @ K.T) + Q
    prediction = float(x @ prior_mean)
    pred_var = float(x @ prior_cov @ x) + sigma2
    post = rank_one_update(prior_mean, prior_cov, float(sigma2), x, y)
    return post, prediction, pred_var


def _normalize_q_schedule(Q_schedule, n: int, d: int) -> list[np.ndarray]:
    arr = np.asarray(Q_schedule, dtype=float)
    if arr.ndim == 2:
        if arr.shape != (d, d):
            raise ValueError(f"constant Q has shape {arr.shape}, expected ({d}, {d})")
        return [arr] * n
    if arr.ndim != 3:
        raise ValueError("Q schedule must be a (d,d) matrix or an (n,d,d) stack")
    if len(arr) != n:
        raise ValueError(f"Q schedule has length {len(arr)}, expected {n}")
    return list(arr)


def _normalize_sigma2_schedule(sigma2_schedule, n: int) -> np.ndarray:
    arr = np.asarray(sigma2_schedule, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"sigma2 schedule has shape {arr.shape}, expected ({n},)")
    return arr


def kalman_run(series, K: np.ndarray, Q_schedule, sigma2_schedule,
               init: GaussianState | None = None) -> list[StepRecord]:
    """Run the filter over a dataset; one record per step.

    Schedules may be constants or per-step sequences of length ``n``.
    """
    n, d = series.n, series.d
    if K.shape != (d, d):
        raise ValueError(f"transition matrix has shape {K.shape}, expected ({d}, {d})")
    qs = _normalize_q_schedule(Q_schedule, n, d)
    sig = _normalize_sigma2_schedule(sigma2_schedule, n)
    state = init.copy() if init is not None else GaussianState(np.zeros(d), np.eye(d))
    trace: list[StepRecord] = []
    for t in range(n):
        y = float(series.y[t])
        state, prediction, pred_var = kalman_step(state, K, qs[t], float(sig[t]), series.x[t], y)
        trace.append(StepRecord(
            t=t, y=y, forecast=prediction, forecast_var=pred_var, residual=y - prediction,
            a_hat=float(np.log(sig[t])), s=0.0, sigma2_eff=float(sig[t]),
            b_hat=None, sigma_diag=None, cum_sq_err=0.0,
            theta=state.mean.copy(), cov=state.cov.copy(),
        ))
    return fill_cum_sq_err(trace)
