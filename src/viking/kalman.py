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
from .records import Trace, split_traces

P0 = 1.0  # initial state covariance scale, P0 * I, for every filter


@dataclass
class GaussianState:
    """Gaussian state belief: mean vector and symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def validate(self, sym_rtol: float = 1e-12, eig_rtol: float = 1e-10) -> None:
        scale = max(float(np.abs(self.cov).max()), 1e-300)
        if float(np.abs(self.cov - self.cov.T).max()) > sym_rtol * scale:
            raise ValueError("covariance is not symmetric within tolerance")
        trace = float(np.trace(self.cov))
        if float(np.linalg.eigvalsh(sym(self.cov)).min()) < -eig_rtol * max(trace, 1e-300):
            raise ValueError("covariance has a significantly negative eigenvalue")


def quad_form(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m @ x``, evaluated left to right, for each vector and matrix of two stacks."""
    return (x[..., None, :] @ m @ x[..., :, None])[..., 0, 0]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v`` for each matrix and vector of two stacks (the same bits as one by one)."""
    return m @ v if v.ndim == 1 else (m @ v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u @ v`` for each pair of vectors of two stacks (the same bits as one by one)."""
    return u @ v if u.ndim == 1 else (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def rank_one_update(prior_mean: np.ndarray, prior_cov: np.ndarray, sigma_eff,
                    x: np.ndarray, y) -> GaussianState:
    """Posterior from one scalar observation ``y = x.theta + noise(sigma_eff)``.

    Every argument may carry the same leading (filter) axes; each filter's
    arithmetic is the same as when it is passed alone.
    """
    cx = _matvec(prior_cov, x)
    denom = _dot(x, cx) + sigma_eff
    post_cov = sym(prior_cov - cx[..., :, None] * (cx / denom[..., None])[..., None, :])
    resid = y - _dot(x, prior_mean)
    post_mean = prior_mean + _matvec(post_cov, x) * (resid / sigma_eff)[..., None]
    return GaussianState(post_mean, post_cov)


def _check_psd(Q: np.ndarray) -> None:
    """Every matrix of ``Q`` (one, or a stack) is square, symmetric and PSD."""
    if Q.ndim < 2 or Q.shape[-2] != Q.shape[-1]:
        raise ValueError(f"state-noise matrix must be square, got shape {Q.shape}")
    scale = np.maximum(np.abs(Q).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(Q - Q.swapaxes(-1, -2)).max(axis=(-2, -1)) > 1e-10 * scale):
        raise ValueError("state-noise matrix is not symmetric")
    if np.any(np.linalg.eigvalsh(sym(Q)).min(axis=-1) < -1e-10 * scale):
        raise ValueError("state-noise matrix is not positive semidefinite")


def _check_sigma2(sigma2) -> None:
    if not np.all(np.asarray(sigma2) > 0.0):  # NaN fails too
        raise ValueError(f"observation variance must be > 0, got {np.min(sigma2)}")


def _predict_update(state: GaussianState, K: np.ndarray, Q: np.ndarray, sigma2,
                    x: np.ndarray, y) -> tuple[GaussianState, np.ndarray, np.ndarray]:
    """One unchecked predict/update cycle; arguments may carry leading filter axes."""
    prior_mean = _matvec(K, state.mean)
    prior_cov = sym(K @ state.cov @ K.T) + Q
    prediction = _dot(x, prior_mean)
    pred_var = quad_form(x, prior_cov) + sigma2
    return rank_one_update(prior_mean, prior_cov, sigma2, x, y), prediction, pred_var


def kalman_step(state: GaussianState, K: np.ndarray, Q: np.ndarray, sigma2: float,
                x: np.ndarray, y: float) -> tuple[GaussianState, float, float]:
    """One predict/update cycle; returns (posterior, prediction, pred_var)."""
    _check_sigma2(sigma2)
    _check_psd(Q)
    post, prediction, pred_var = _predict_update(state, K, Q, float(sigma2), x, y)
    return post, float(prediction), float(pred_var)


def kalman_run_batch(x: np.ndarray, y: np.ndarray, K: np.ndarray, Q: np.ndarray,
                     sigma2: np.ndarray, init: GaussianState, keep_state: bool) -> list[Trace]:
    """Run B filters in one recursion, filter ``b`` on series ``x[:, b]``,
    ``y[:, b]``; one trace per filter.

    ``x`` is ``(n, B, d)`` and ``y`` ``(n, B)``. ``Q`` is one ``(d, d)``
    matrix for every filter and step, or ``(n, B, d, d)``; ``sigma2`` is
    ``(n, B)`` or broadcasts to it. This is the one place schedules are
    checked: every Q and sigma2 is validated once, up front. ``keep_state``
    adds the ``theta``/``cov`` columns. Each filter's trace is the one it
    gets alone.
    """
    n, B, d = x.shape
    if K.shape != (d, d):
        raise ValueError(f"transition matrix has shape {K.shape}, expected ({d}, {d})")
    if Q.shape not in ((d, d), (n, B, d, d)):
        raise ValueError(f"Q has shape {Q.shape}, expected ({d}, {d}) or ({n}, {B}, {d}, {d})")
    _check_psd(Q)
    sigma2 = np.broadcast_to(sigma2, (n, B))  # a ValueError unless it broadcasts
    _check_sigma2(sigma2)
    state = GaussianState(np.broadcast_to(init.mean, (B, d)), np.broadcast_to(init.cov, (B, d, d)))
    forecast, forecast_var = np.empty((n, B)), np.empty((n, B))
    theta, cov = (np.empty((n, B, d)), np.empty((n, B, d, d))) if keep_state else (None, None)
    for t in range(n):
        state, forecast[t], forecast_var[t] = _predict_update(
            state, K, Q if Q.ndim == 2 else Q[t], sigma2[t], x[t], y[t])
        if keep_state:
            theta[t], cov[t] = state.mean, state.cov
    return split_traces(np.arange(n), y, forecast, forecast_var, np.log(sigma2),
                        np.zeros((n, B)), sigma2, theta=theta, cov=cov)


def kalman_run(series, K: np.ndarray, Q, sigma2, init: GaussianState | None = None) -> Trace:
    """Run one filter over a dataset: :func:`kalman_run_batch` with B = 1.

    ``Q`` is a ``(d, d)`` matrix or an ``(n, d, d)`` stack; ``sigma2`` a
    constant or an ``(n,)`` sequence. ``init`` defaults to N(0, P0 I).
    """
    Q = np.asarray(Q, dtype=float)
    init = init if init is not None else GaussianState(np.zeros(series.d), P0 * np.eye(series.d))
    return kalman_run_batch(series.x[:, None], series.y[:, None], K, Q[:, None] if Q.ndim == 3 else Q,
                            np.asarray(sigma2, dtype=float)[..., None], init, keep_state=True)[0]
