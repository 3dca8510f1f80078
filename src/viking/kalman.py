"""Standard Kalman filter for known (possibly time-varying) noise variances.

Serves as the exact baseline the adaptive filter collapses to when its
variance beliefs are degenerate, and as the known-variance oracle in the
synthetic experiments. The posterior update is written as a rank-one
correction of the propagated prior covariance, shared verbatim with the
adaptive filter's state update so the two paths agree bit for bit. The
forecast variance is that update's innovation variance ``x·(P x) + sigma2``,
the denominator of its gain, formed once per step and returned with the
posterior.

A transition that is a multiple ``c·I`` of the identity (``I`` for the
random walks, ``0.9·I`` for the mixture experiments) is applied by scaling:
``c * mean`` and ``sym((c * cov) * c) + Q`` instead of ``K @ mean`` and
``sym(K @ cov @ K.T) + Q``. For a finite state these are the same bits:
each entry of the products is one nonzero term ``c·v`` (or ``(c·v)·c``)
plus exact zeros, which leave it unchanged, and matmul starts its sums at
``+0.0``, so a zero entry comes out ``+0.0``; the scaled forms add ``+0.0``
to turn a ``-0.0`` into ``+0.0`` too (a ``-0.0`` forecast would print
differently). :func:`kalman_run_grid` finds ``c`` once per run and
:func:`kalman_step` once per call (:func:`transition_scale`); any other
transition, such as the resonator's rotation, is multiplied out.

Covariances are symmetrised twice a step: the prior before ``Q`` is added,
and the posterior as it leaves :func:`rank_one_update`. A posterior is thus
exactly symmetric (``a + b`` and ``b + a`` are the same bits), and so is the
next step's scaled ``M = (c·P)·c + 0.0``, whose ``+ 0.0`` has turned each
``-0.0`` into ``+0.0``. So ``0.5·(M + Mᵀ) = 0.5·(2M)`` gives ``M``'s bits
back (unless an entry exceeds half the largest double, where the sum
overflows to ``inf``; no usable covariance comes near), and the grid skips
that ``sym`` from its second step on, and at its first when ``init.cov``
equals its transpose exactly (no tolerance). :func:`kalman_step` always
symmetrises, and so does a product ``K @ P @ K.T``, whose two triangles
round differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_finite, check_transition
from .linalg import sym
from .records import Trace, split_traces

P0 = 1.0  # initial state covariance scale, P0 * I, for every filter
SYM_RTOL, EIG_RTOL = 1e-12, 1e-10  # GaussianState.validate's tolerances, relative to each matrix's scale


@dataclass
class GaussianState:
    """Gaussian state belief: mean vector and symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def validate(self) -> None:
        """Each covariance, of one state or a stack, is symmetric and PSD
        within tolerances relative to its own scale."""
        cov = self.cov
        scale = np.maximum(np.abs(cov).max(axis=(-2, -1)), 1e-300)
        if np.any(np.abs(cov - cov.swapaxes(-1, -2)).max(axis=(-2, -1)) > SYM_RTOL * scale):
            raise ValueError("covariance is not symmetric within tolerance")
        trace = np.trace(cov, axis1=-2, axis2=-1)
        if np.any(np.linalg.eigvalsh(sym(cov)).min(axis=-1) < -EIG_RTOL * np.maximum(trace, 1e-300)):
            raise ValueError("covariance has a significantly negative eigenvalue")


def quad_form(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m @ x``, evaluated left to right, for each vector and matrix of two stacks."""
    return x @ m @ x if x.ndim == 1 else (x[..., None, :] @ m @ x[..., :, None])[..., 0, 0]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v`` for each matrix and vector of two stacks (the same bits as one by one)."""
    return m @ v if v.ndim == 1 else (m @ v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u @ v`` for each pair of vectors of two stacks (the same bits as one by one)."""
    return u @ v if u.ndim == 1 else (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def rank_one_update(prior_mean: np.ndarray, prior_cov: np.ndarray, sigma_eff,
                    x: np.ndarray, y, prediction) -> tuple[GaussianState, np.ndarray]:
    """Posterior from one scalar observation ``y = x.theta + noise(sigma_eff)``,
    given its prediction ``x·prior_mean`` (``_dot(x, prior_mean)``), and the
    innovation variance ``x·(P x) + sigma_eff`` that divides the gain.

    Every argument may carry the same leading (filter) axes; each filter's
    arithmetic is the same as when it is passed alone. No argument is
    written to: the in-place steps work on arrays made here.
    """
    cx = _matvec(prior_cov, x)
    denom = _dot(x, cx)
    denom += sigma_eff  # a lone filter's scalar is rebound
    outer = cx[..., :, None] * (cx / denom[..., None])[..., None, :]
    post_cov = sym(np.subtract(prior_cov, outer, outer))
    step = _matvec(post_cov, x)
    step *= ((y - prediction) / sigma_eff)[..., None]
    step += prior_mean
    return GaussianState(step, post_cov), denom


def _check_psd(Q: np.ndarray) -> None:
    """Every matrix of ``Q`` (one, or a stack) is square, symmetric and PSD."""
    if Q.ndim < 2 or Q.shape[-2] != Q.shape[-1]:
        raise ValueError(f"state-noise matrix must be square, got shape {Q.shape}")
    scale = np.maximum(np.abs(Q).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(Q - Q.swapaxes(-1, -2)).max(axis=(-2, -1)) > 1e-10 * scale):
        raise ValueError("state-noise matrix is not symmetric")
    if np.any(np.linalg.eigvalsh(sym(Q)).min(axis=-1) < -1e-10 * scale):
        raise ValueError("state-noise matrix is not positive semidefinite")


def _check_inputs(x: np.ndarray, y) -> None:
    """Every covariate and observation is finite; else a ``ValueError`` naming
    the first bad step and series of an ``(n, B, d)``/``(n, B)`` pair, with
    the series as the exception's ``filter``."""
    if np.isfinite(x).all() and np.isfinite(y).all():
        return
    bad = ~(np.isfinite(x).all(axis=-1) & np.isfinite(y))
    if bad.ndim < 2:
        raise ValueError("non-finite covariates or observation")
    t, b = np.argwhere(bad)[0]
    err = ValueError(f"step {t}, series {b}: non-finite covariates or observation")
    err.filter = int(b)
    raise err


def _check_init(init: GaussianState, d: int, where: str = "init") -> None:
    """The initial state is one finite ``(d,)`` mean with a finite, symmetric,
    PSD ``(d, d)`` covariance; else ``ValueError`` starting with ``where``."""
    mean, cov = np.asarray(init.mean), np.asarray(init.cov)
    if mean.shape != (d,) or cov.shape != (d, d):
        raise ValueError(f"{where}: mean {mean.shape} and covariance {cov.shape}, expected ({d},) and ({d}, {d})")
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError(f"{where}: mean and covariance must be finite")
    try:
        GaussianState(mean, cov).validate()
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def transition_scale(K: np.ndarray) -> np.ndarray | float:
    """``c`` as a float when ``K`` is ``c·I`` for a finite ``c``, else ``K``:
    the transition as :func:`_predict_update` applies it."""
    c = float(K[0, 0])
    return c if np.isfinite(c) and np.array_equal(K, c * np.eye(len(K))) else K


def _propagate(state: GaussianState, K: np.ndarray | float, Q: np.ndarray,
               symmetric: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Prior mean and covariance, ``K @ mean`` and ``sym(K @ cov @ K.T) + Q``;
    a float ``K`` is the scale ``c`` of a transition ``c·I``, applied by
    scaling with the same bits, and without ``sym`` when ``symmetric`` says
    ``state.cov`` is exactly symmetric (see the module docstring). ``state``
    is not written to."""
    if isinstance(K, float):
        mean = K * state.mean
        mean += 0.0
        cov = K * state.cov
        cov *= K
        cov += 0.0
    else:
        mean = _matvec(K, state.mean)
        cov = K @ state.cov @ K.T
        symmetric = False  # rounding makes the product's two triangles differ
    if not symmetric:
        cov = sym(cov)
    cov += Q
    return mean, cov


def _predict_update(state: GaussianState, K: np.ndarray | float, Q: np.ndarray, sigma2,
                    x: np.ndarray, y, symmetric: bool = False) -> tuple[GaussianState, np.ndarray, np.ndarray]:
    """One unchecked predict/update cycle; arguments may carry leading filter
    axes, and ``K`` and ``symmetric`` are as :func:`_propagate` takes them."""
    prior_mean, prior_cov = _propagate(state, K, Q, symmetric)
    prediction = _dot(x, prior_mean)
    post, pred_var = rank_one_update(prior_mean, prior_cov, sigma2, x, y, prediction)
    return post, prediction, pred_var


def kalman_step(state: GaussianState, K: np.ndarray, Q: np.ndarray, sigma2: float,
                x: np.ndarray, y: float) -> tuple[GaussianState, float, float]:
    """One predict/update cycle; returns (posterior, prediction, pred_var).
    ``pred_var`` is the update's innovation variance ``x·(P x) + sigma2``,
    ``P`` the propagated prior covariance. A non-finite ``x`` or ``y`` raises
    ``ValueError``, and so does a ``state`` that is not one finite ``(d,)``
    mean with a symmetric PSD ``(d, d)`` covariance (within tolerance), its
    message starting with ``state: ``."""
    check_finite("observation variance", sigma2, "> 0", got=True)
    _check_psd(Q)
    _check_inputs(x, y)
    _check_init(state, len(K), "state")
    post, prediction, pred_var = _predict_update(state, transition_scale(K), Q, float(sigma2), x, y)
    return post, float(prediction), float(pred_var)


def kalman_run_grid(x: np.ndarray, y: np.ndarray, K: np.ndarray, Q: np.ndarray, sigma2,
                    init: GaussianState, keep_state: bool) -> tuple[np.ndarray, ...]:
    """Run G × B filters in one recursion: filter ``(g, b)`` uses grid point
    ``g``'s state noise on series ``x[:, b]``, ``y[:, b]``.

    ``x`` is ``(n, B, d)`` and ``y`` ``(n, B)``; they broadcast across the
    grid axis and are never copied per point. ``Q`` is ``(G, 1, d, d)``, one
    matrix per grid point for every step and series, or ``(n, 1, B, d, d)``,
    one per step and series at a single grid point; ``sigma2`` is ``(n, B)``
    or broadcasts to it. ``init`` is the one initial state of every filter.
    It, every Q, sigma2, covariate and observation are validated once, before
    the first step; a non-finite input raises ``ValueError`` naming its first
    step and series (also as the exception's ``filter``), a bad ``init``
    naming ``init``. Returns the ``(n, G, B)`` forecast and forecast-variance
    blocks, then ``theta`` ``(n, G, B, d)`` and ``cov`` ``(n, G, B, d, d)``
    with ``keep_state`` (else ``None``). Each filter's outputs are the ones
    it gets alone, bit for bit; the steps skip the prior's ``sym`` wherever
    it is a no-op, from the second step on and at the first when ``init.cov``
    equals its transpose exactly (see the module docstring).
    """
    n, B, d = x.shape
    K = check_transition(K, d)
    G = len(Q) if Q.ndim == 4 else 1
    if G < 1 or Q.shape not in ((G, 1, d, d), (n, 1, B, d, d)):
        raise ValueError(f"Q has shape {Q.shape}, expected (G, 1, {d}, {d}) or ({n}, 1, {B}, {d}, {d})")
    _check_psd(Q)
    sigma2 = np.broadcast_to(sigma2, (n, B))  # a ValueError unless it broadcasts
    check_finite("observation variance", sigma2, "> 0", got=True)
    _check_inputs(x, y)
    _check_init(init, d)
    K = transition_scale(K)
    symmetric = np.array_equal(init.cov, np.transpose(init.cov))  # no tolerance; later states are posteriors
    state = GaussianState(np.broadcast_to(init.mean, (G, B, d)), np.broadcast_to(init.cov, (G, B, d, d)))
    forecast, forecast_var = np.empty((n, G, B)), np.empty((n, G, B))
    theta, cov = (np.empty((n, G, B, d)), np.empty((n, G, B, d, d))) if keep_state else (None, None)
    for t in range(n):
        state, forecast[t], forecast_var[t] = _predict_update(
            state, K, Q if Q.ndim == 4 else Q[t], sigma2[t], x[t], y[t], symmetric or t > 0)
        if keep_state:
            theta[t], cov[t] = state.mean, state.cov
    return forecast, forecast_var, theta, cov


def kalman_traces(y: np.ndarray, sigma2, blocks: tuple[np.ndarray, ...], g: int) -> list[Trace]:
    """One trace per series at grid point ``g`` of the blocks
    :func:`kalman_run_grid` returned, as views into them."""
    forecast, forecast_var, theta, cov = (None if block is None else block[:, g] for block in blocks)
    sigma2 = np.broadcast_to(sigma2, forecast.shape)
    return split_traces(np.arange(len(y)), y, forecast, forecast_var, np.log(sigma2),
                        np.zeros(forecast.shape), sigma2, theta=theta, cov=cov)


def kalman_run(series, K: np.ndarray, Q, sigma2, init: GaussianState | None = None) -> Trace:
    """Run one filter over a dataset: :func:`kalman_run_grid` with one grid
    point and one series, read back by :func:`kalman_traces`.

    ``Q`` is a ``(d, d)`` matrix or an ``(n, d, d)`` stack; ``sigma2`` a
    constant or an ``(n,)`` sequence. ``init`` defaults to N(0, P0 I).
    """
    Q = np.asarray(Q, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)[..., None]
    y = series.y[:, None]
    init = init if init is not None else GaussianState(np.zeros(series.d), P0 * np.eye(series.d))
    blocks = kalman_run_grid(series.x[:, None], y, K, Q[:, None, None] if Q.ndim == 3 else Q[None, None],
                             sigma2, init, keep_state=True)
    return kalman_traces(y, sigma2, blocks, 0)[0]
