"""Variance-tracking variational filter.

State-space filtering when both noise variances are unknown: the observation
variance is ``exp(a)`` and the state-noise matrix ``f(b)`` for gaussian
latents ``a`` and ``b`` in a random-walk tracking mode. Each step minimizes a
KL divergence between a product of three gaussians and the one-step
posterior, alternating ``n_iter`` coordinate passes:

1. Monte-Carlo estimate of the expected propagated precision ``A`` under the
   current belief over ``b`` (``n_mc`` draws).
2. Exact state moment update given ``A`` (a Kalman-style rank-one update with
   effective observation variance ``exp(a_hat - s/2)``).
3. Closed-form minimizer of a surrogate for the observation-variance latent's
   posterior variance ``s``: the convex ``e^(s/2)`` term is replaced by its
   tangent at ``s = 0``, a lower bound (see :func:`update_s`).
4. Closed-form minimizer of a quadratic upper bound for its mean ``a_hat``,
   valid on the clamp interval.
5. Quadratic-bound step for the state-noise latent: gradient and a dominating
   PSD curvature matrix of the log-det objective, expanded at the previous
   step's latent, followed by a nonnegativity clamp.

Defaults follow ``rho_a = e^-9``, ``rho_b = e^-6``, ``n_mc = 10``, two
passes. With the learning flags off and degenerate beliefs the step reduces
exactly to the standard Kalman filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kalman import P0, GaussianState, rank_one_update
from .linalg import SingularMatrixError, eye, spd_inv, spd_inv_batch, sym
from .records import StepRecord, Trace
from .rng import STREAM_FILTER, make_rng
from .transforms import (
    NoiseTransform,
    apply_f,
    noise_diag_batch,
    psi_gradient_hessian_bound,
)

# Keep-alive floors: the clamp interval for a_hat collapses if s ever reaches
# zero, and the curvature bound needs f(b) > 0 at the expansion point.
M_A_FLOOR = 1e-8
B_HAT_FLOOR = 1e-8


@dataclass
class VikingHyper:
    """Time-invariant filter parameters."""

    transform: NoiseTransform
    K: np.ndarray
    rho_a: float = math.exp(-9.0)
    rho_b: float = math.exp(-6.0)
    n_mc: int = 10
    n_iter: int = 2
    learn_a: bool = True
    learn_b: bool = True

    def __post_init__(self) -> None:
        self.K = np.asarray(self.K, dtype=float)
        d = self.transform.dim
        if self.K.shape != (d, d):
            raise ValueError(f"transition matrix has shape {self.K.shape}, expected ({d}, {d})")
        if self.n_mc < 1 or self.n_iter < 1:
            raise ValueError("n_mc and n_iter must be >= 1")
        if self.rho_a < 0.0 or self.rho_b < 0.0:
            raise ValueError("random-walk variances must be >= 0")


@dataclass
class VarianceBeliefs:
    """Gaussian beliefs over the noise latents: a ~ N(a_hat, s), b ~ N(b_hat, Sigma)."""

    a_hat: float
    s: float
    b_hat: np.ndarray
    Sigma: np.ndarray


@dataclass
class VikingState:
    """Full filter state; the generator is shared and advanced by each step."""

    state: GaussianState
    beliefs: VarianceBeliefs
    step_index: int
    rng: np.random.Generator


def default_initial_state(transform: NoiseTransform, *, a0: float = 0.0, s0: float = 0.1,
                          q0=0.1, sigma0: float = 0.1, p0: float = P0, seed: int = 0) -> VikingState:
    """Neutral unit-scale initialization.

    ``q0`` is the target diagonal of the initial state-noise matrix; the
    latent is set to ``exp(q0) - 1`` per coordinate so ``f(b0)`` hits it
    exactly. ``q0`` may be a scalar or a per-coordinate vector (diagonal
    kind only).
    """
    d, m = transform.dim, transform.latent_dim
    q0_arr = np.asarray(q0, dtype=float)
    if q0_arr.ndim == 0:
        q0_arr = np.full(m, float(q0_arr))
    if q0_arr.shape != (m,):
        raise ValueError(f"q0 has shape {q0_arr.shape}, expected scalar or ({m},)")
    b0 = np.expm1(q0_arr)
    beliefs = VarianceBeliefs(a0, s0, b0, sigma0 * np.eye(m))
    return VikingState(GaussianState(np.zeros(d), p0 * np.eye(d)), beliefs, 0, make_rng(seed, STREAM_FILTER))


def _psd_sqrt(Sigma: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(sym(Sigma))
        return v * np.sqrt(np.clip(w, 0.0, None))


def sample_noise_latents(b_hat: np.ndarray, Sigma: np.ndarray, n_mc: int,
                         rng: np.random.Generator) -> np.ndarray:
    """``(n_mc, m)`` gaussian draws from N(b_hat, Sigma)."""
    z = rng.standard_normal((n_mc, b_hat.shape[0]))
    return b_hat + z @ _psd_sqrt(Sigma).T


def estimate_precision(b_hat: np.ndarray, Sigma: np.ndarray, KPK: np.ndarray,
                       transform: NoiseTransform, n_mc: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of the expected propagated precision.

    Returns ``(A, A_inv)`` with ``A`` the sample mean of ``(KPK + f(b_i))^-1``
    over ``n_mc`` draws ``b_i ~ N(b_hat, Sigma)``. A zero ``Sigma`` makes all
    draws equal ``b_hat``, so sampling is short-circuited and ``A_inv`` is
    ``KPK + f(b_hat)`` exactly.
    """
    d = transform.dim
    if not Sigma.any():
        C = KPK + apply_f(transform, b_hat)
        return spd_inv(C), C.copy()
    draws = sample_noise_latents(b_hat, Sigma, n_mc, rng)
    Cs = np.broadcast_to(KPK, (n_mc, d, d)).copy()
    Cs.reshape(n_mc, d * d)[:, ::d + 1] += noise_diag_batch(transform, draws)
    A = sym(spd_inv_batch(Cs).mean(axis=0))
    return A, spd_inv(A)


def update_state_moments(A_inv: np.ndarray, a_hat: float, s: float,
                         prior_mean: np.ndarray, x: np.ndarray, y: float) -> GaussianState:
    """Exact KL-optimal state moments given the expected precision.

    ``A_inv`` plays the role of the propagated prior covariance; the
    effective observation variance is ``exp(a_hat - s/2)``.
    """
    return rank_one_update(prior_mean, A_inv, math.exp(a_hat - 0.5 * s), x, y)


def update_s(r2: float, a_hat: float, s_prior: float) -> float:
    """Closed-form minimizer of the latent's posterior-variance surrogate.

    ``r2`` is the expected squared residual ``(y - theta.x)^2 + x'Px``;
    ``s_prior`` is the propagated prior variance. The exact s-objective is
    ``r2 e^(-a_hat + s/2) / 2 + s / (2 s_prior) - log(s) / 2``; its first
    term is replaced by the tangent at ``s = 0``, ``r2 e^(-a_hat) (1 + s/2) / 2``.
    The term is convex in ``s``, so the tangent is a *lower* bound on it, not
    an upper one, and the surrogate's minimizer lies between the exact
    minimizer and ``s_prior``: it never raises the exact objective above its
    value at ``s_prior``. The result is always in ``(0, s_prior]`` (clamped
    against the one-ulp double-reciprocal overshoot).
    """
    return min(1.0 / (1.0 / s_prior + 0.5 * r2 * math.exp(-a_hat)), s_prior)


def update_a(r2: float, a_prev: float, s: float, s_prior: float, m_a: float) -> float:
    """Closed-form bound minimizer for the latent's posterior mean.

    A projected gradient step on the expected log-likelihood, clamped to
    ``[a_prev - m_a, a_prev + m_a]``.
    """
    scaled = r2 * math.exp(-a_prev + 0.5 * s)
    curvature = 1.0 / s_prior + 0.5 * scaled * math.exp(m_a)
    a_raw = a_prev + 0.5 * (scaled - 1.0) / curvature
    return min(max(a_raw, a_prev - m_a), a_prev + m_a)


def update_b(b_prev: np.ndarray, Sigma_prev: np.ndarray, grad: np.ndarray, H: np.ndarray,
             rho_b: float, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-bound step for the state-noise latent.

    ``Sigma_new = ((Sigma_prev + rho_b I)^-1 + H/2)^-1`` and the mean moves by
    ``-Sigma_new @ grad / 2`` from ``b_prev``, clamped coordinate-wise at
    ``floor`` (0 by default; the filter passes a small positive floor so the
    next step's curvature bound stays defined).
    """
    m = b_prev.shape[0]
    if grad.shape != (m,) or H.shape != (m, m) or Sigma_prev.shape != (m, m):
        raise ValueError("inconsistent latent dimensions in update_b")
    prior_prec = spd_inv(Sigma_prev + rho_b * eye(m))
    Sigma_new = spd_inv(prior_prec + 0.5 * H)
    b_new = np.maximum(b_prev - 0.5 * (Sigma_new @ grad), floor)
    return b_new, Sigma_new


def _propagate(st: VikingState, hyper: VikingHyper) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prior mean, propagated covariance, and its plug-in noise-augmented form."""
    prior_mean = hyper.K @ st.state.mean
    KPK = sym(hyper.K @ st.state.cov @ hyper.K.T)
    prop = KPK + apply_f(hyper.transform, st.beliefs.b_hat)
    return prior_mean, KPK, prop


def _predictive(x: np.ndarray, prior_mean: np.ndarray, prop: np.ndarray,
                bel: VarianceBeliefs) -> tuple[float, float]:
    return float(x @ prior_mean), float(x @ prop @ x) + math.exp(bel.a_hat + 0.5 * bel.s)


def forecast(st: VikingState, hyper: VikingHyper, x: np.ndarray) -> tuple[float, float]:
    """Plug-in one-step predictive mean and variance for covariates ``x``."""
    prior_mean, _, prop = _propagate(st, hyper)
    return _predictive(x, prior_mean, prop, st.beliefs)


def viking_step(st: VikingState, hyper: VikingHyper, x: np.ndarray, y: float) -> tuple[VikingState, StepRecord]:
    """One filtering step; returns the new state and the step record.

    The record holds the pre-update point forecast and predictive variance
    and the post-update beliefs. Numerical singularities are re-raised with
    the step index attached.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (hyper.transform.dim,):
        raise ValueError(f"covariates have shape {x.shape}, expected ({hyper.transform.dim},)")
    try:
        return _viking_step_inner(st, hyper, x, float(y))
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"step {st.step_index}: {exc}") from exc


def _viking_step_inner(st: VikingState, hyper: VikingHyper, x: np.ndarray, y: float) -> tuple[VikingState, StepRecord]:
    transform = hyper.transform
    m = transform.latent_dim
    bel = st.beliefs
    prior_mean, KPK, prop = _propagate(st, hyper)
    fc_mean, fc_var = _predictive(x, prior_mean, prop, bel)

    a_prev, s_prev = bel.a_hat, bel.s
    b_prev, Sigma_prev = bel.b_hat, bel.Sigma
    s_prior = s_prev + hyper.rho_a
    m_a = max(3.0 * s_prev, M_A_FLOOR)

    a_cur, s_cur = a_prev, s_prior
    b_cur = b_prev.copy()
    Sigma_cur = Sigma_prev + hyper.rho_b * eye(m)
    C = prop if hyper.learn_b else None  # KPK + f(b_hat) at the previous step's latent

    state_new = st.state
    for _ in range(hyper.n_iter):
        _, A_inv = estimate_precision(b_cur, Sigma_cur, KPK, transform, hyper.n_mc, st.rng)
        state_new = update_state_moments(A_inv, a_cur, s_cur, prior_mean, x, y)
        if hyper.learn_a:
            resid = y - float(state_new.mean @ x)
            r2 = resid * resid + float(x @ state_new.cov @ x)
            s_cur = update_s(r2, a_cur, s_prior)
            a_cur = update_a(r2, a_prev, s_cur, s_prior, m_a)
        if hyper.learn_b:
            delta = state_new.mean - prior_mean
            B = state_new.cov + np.outer(delta, delta)
            grad, H = psi_gradient_hessian_bound(transform, b_prev, B, C)
            b_cur, Sigma_cur = update_b(b_prev, Sigma_prev, grad, H, hyper.rho_b, floor=B_HAT_FLOOR)

    beliefs = VarianceBeliefs(a_cur, s_cur, b_cur, Sigma_cur)
    record = StepRecord(
        t=st.step_index, y=y, forecast=fc_mean, forecast_var=fc_var, residual=y - fc_mean,
        a_hat=a_cur, s=s_cur, sigma2_eff=math.exp(a_cur - 0.5 * s_cur),
        b_hat=b_cur.copy(), sigma_diag=np.diagonal(Sigma_cur).copy(),
        cum_sq_err=float("nan"), theta=state_new.mean.copy(), cov=state_new.cov.copy(),
    )
    return VikingState(state_new, beliefs, st.step_index + 1, st.rng), record


def viking_run(series, hyper: VikingHyper, init: VikingState | None = None) -> tuple[Trace, VikingState]:
    """Run the filter over a dataset; the trace includes the cumulative second-half error."""
    if series.d != hyper.transform.dim:
        raise ValueError(f"dataset dimension {series.d} does not match filter dimension {hyper.transform.dim}")
    st = init if init is not None else default_initial_state(hyper.transform)
    records: list[StepRecord] = []
    for t in range(series.n):
        st, rec = viking_step(st, hyper, series.x[t], float(series.y[t]))
        records.append(rec)
    return Trace.from_records(records), st


def state_to_checkpoint(st: VikingState) -> dict:
    """Flat numeric record of the full state; json round-trips it exactly."""
    bg_state = st.rng.bit_generator.state
    return {
        "mean": [float(v) for v in st.state.mean],
        "cov": [float(v) for v in st.state.cov.ravel()],
        "a_hat": float(st.beliefs.a_hat),
        "s": float(st.beliefs.s),
        "b_hat": [float(v) for v in st.beliefs.b_hat],
        "Sigma": [float(v) for v in st.beliefs.Sigma.ravel()],
        "step_index": int(st.step_index),
        "rng_state": int(bg_state["state"]["state"]),
        "rng_inc": int(bg_state["state"]["inc"]),
        "rng_has_uint32": int(bg_state["has_uint32"]),
        "rng_uinteger": int(bg_state["uinteger"]),
    }


def state_from_checkpoint(rec: dict) -> VikingState:
    d = len(rec["mean"])
    m = len(rec["b_hat"])
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": rec["rng_state"], "inc": rec["rng_inc"]},
        "has_uint32": rec["rng_has_uint32"],
        "uinteger": rec["rng_uinteger"],
    }
    return VikingState(
        GaussianState(np.array(rec["mean"]), np.array(rec["cov"]).reshape(d, d)),
        VarianceBeliefs(rec["a_hat"], rec["s"], np.array(rec["b_hat"]),
                        np.array(rec["Sigma"]).reshape(m, m)),
        rec["step_index"],
        np.random.Generator(bg),
    )
