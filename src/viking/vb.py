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

What is the same in every pass is formed once per step: the latent prior
``Sigma_prev + rho_b I`` (:meth:`VarianceBeliefs.latent_prior`), handed to
step 5; its zero test, which makes step 1's sampling choice (a zero prior
means ``b`` is known: step 1 takes no draw, and step 5 is skipped); and the
terms of the ``b`` bound that depend only on its expansion point
(:func:`~viking.transforms.expansion_point`). The sampling choice holds for
every pass, since step 5's covariance is an SPD inverse, nonzero exactly
when the prior is. The public :func:`estimate_precision` and
:func:`update_b` form these from their arguments, then run the same
per-pass cores as the step. Each pass redoes steps 1-5, because each
depends on the previous pass's state moments or latents. Two inverses in
step 5 are also the same in every pass, ``(KPK + f(b_prev))^-1`` in the
bound and the prior's inverse in :func:`update_b`; they stay per pass
because the inversion budget, ``n_iter·(n_mc + 4)`` per step (acceptance
check c07), counts them there.

Defaults follow ``rho_a = e^-9``, ``rho_b = e^-6``, ``n_mc = 10``, two
passes. With the learning flags off and degenerate beliefs the step reduces
exactly to the standard Kalman filter.

One step function serves one filter and a batch: a state with a leading
filter axis steps B filters (one grid point's seeds, say) through the same
arithmetic, each with its own generator, and each filter gets the bits it
gets alone (:func:`viking_run_batch`; :func:`viking_run` is its one-filter
case). A single filter steps without the axis, through plain vector and
float calls: the state's shape selects the path. A batch of one gives the
same bits but costs ×1.19 a step at d = 20 and ×1.22 at d = 5 (300 steps,
``n_mc`` 10, one BLAS thread, 2-core machine), mostly in the ``a``/``s``
updates on one-element arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kalman import P0, GaussianState, _check_init, _dot, _matvec, quad_form, rank_one_update
from .linalg import SingularMatrixError, spd_inv, sym
from .records import StepRecord, Trace, split_traces
from .rng import STREAM_FILTER, make_rng
from .transforms import (
    NoiseTransform,
    apply_f,
    expansion_point,
    noise_diag_batch,
    psi_gradient_hessian_bound,
)

# Keep-alive floors: the clamp interval for a_hat collapses if s ever reaches
# zero, and the curvature bound needs f(b) > 0 at the expansion point.
M_A_FLOOR = 1e-8
B_HAT_FLOOR = 1e-8


def _check_nonnegative(name: str, value) -> None:
    """``value`` is finite and >= 0; else ``ValueError`` naming it."""
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise ValueError(f"{name} = {value} must be finite and >= 0")


def _check_count(name: str, value, low: int) -> None:
    """``value`` is an integer >= ``low`` (a numpy integer passes, a bool
    does not); else ``ValueError`` naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} = {value} must be an integer >= {low}")


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
            raise ValueError(f"transition matrix has shape {self.K.shape}, "
                             f"expected ({d}, {d}) for the {d}-dimensional state")
        _check_count("n_mc", self.n_mc, 1)
        _check_count("n_iter", self.n_iter, 1)
        for name in ("rho_a", "rho_b"):
            _check_nonnegative(name, getattr(self, name))


@dataclass
class VarianceBeliefs:
    """Gaussian beliefs over the noise latents: a ~ N(a_hat, s), b ~ N(b_hat, Sigma).

    A batch of B filters holds ``a_hat`` and ``s`` as ``(B,)`` arrays,
    ``b_hat`` as ``(B, m)`` and ``Sigma`` as ``(B, m, m)``.
    """

    a_hat: float | np.ndarray
    s: float | np.ndarray
    b_hat: np.ndarray
    Sigma: np.ndarray

    def latent_prior(self, rho_b: float, learn_b: bool = True) -> tuple[np.ndarray, bool]:
        """The latent's prior at the next step, ``Sigma + rho_b I``, and
        whether ``b`` is learned there: ``learn_b`` and a nonzero prior. A
        zero prior (``rho_b = 0``, no latent uncertainty) means ``b`` is
        known. For a batch the answer is its filters' together; the
        harness's batches share ``rho_b`` and ``sigma0``, so they never mix
        zero and nonzero priors (see :func:`estimate_precision`)."""
        prior = self.Sigma + rho_b * np.eye(self.Sigma.shape[-1])
        return prior, learn_b and bool(prior.any())


@dataclass
class VikingState:
    """Full filter state; the generator is advanced by each step.

    A batch of B filters (see :func:`stack_states`) has a leading ``(B,)``
    axis on every array, the state mean ``(B, d)`` and covariance
    ``(B, d, d)`` included, and one generator per filter in ``rng``; its
    filters share ``step_index``.
    """

    state: GaussianState
    beliefs: VarianceBeliefs
    step_index: int
    rng: np.random.Generator | list[np.random.Generator]


def default_initial_state(transform: NoiseTransform, *, a0: float = 0.0, s0: float = 0.1,
                          q0=0.1, sigma0: float = 0.1, p0: float = P0, seed: int = 0) -> VikingState:
    """Neutral unit-scale initialization.

    ``q0`` is the target diagonal of the initial state-noise matrix; the
    latent is set to ``exp(q0) - 1`` per coordinate so ``f(b0)`` hits it
    exactly. ``q0`` may be a scalar or a per-coordinate vector (diagonal
    kind only). A non-finite value, or a negative one for any field but
    ``a0``, raises ``ValueError`` naming its field.
    """
    for name, value in (("a0", a0), ("s0", s0), ("q0", q0), ("sigma0", sigma0), ("p0", p0)):
        v = np.asarray(value, dtype=float)
        if not np.isfinite(v).all() or (name != "a0" and (v < 0.0).any()):
            raise ValueError(f"initial {name} = {value} must be finite" + ("" if name == "a0" else " and >= 0"))
    d, m = transform.dim, transform.latent_dim
    q0_arr = np.asarray(q0, dtype=float)
    if q0_arr.ndim == 0:
        q0_arr = np.full(m, float(q0_arr))
    if q0_arr.shape != (m,):
        raise ValueError(f"q0 has shape {q0_arr.shape}, expected scalar or ({m},)")
    b0 = np.expm1(q0_arr)
    beliefs = VarianceBeliefs(a0, s0, b0, sigma0 * np.eye(m))
    return VikingState(GaussianState(np.zeros(d), p0 * np.eye(d)), beliefs, 0, make_rng(seed, STREAM_FILTER))


def stack_states(states: list[VikingState]) -> VikingState:
    """One batched state from single-filter states at the same step."""
    if len({st.step_index for st in states}) != 1:
        raise ValueError("the filters of a batch must be at the same step")
    bels = [st.beliefs for st in states]
    return VikingState(
        GaussianState(np.stack([st.state.mean for st in states]), np.stack([st.state.cov for st in states])),
        VarianceBeliefs(np.array([b.a_hat for b in bels], dtype=float), np.array([b.s for b in bels], dtype=float),
                        np.stack([b.b_hat for b in bels]), np.stack([b.Sigma for b in bels])),
        states[0].step_index, [st.rng for st in states])


def _exp(v):
    """``math.exp`` of a float, or of each value of an array: numpy's SIMD
    ``exp`` can differ from libm's in the last bit, and a filter's arithmetic
    must not depend on whether it runs in a batch."""
    return np.array([math.exp(u) for u in v.tolist()]) if isinstance(v, np.ndarray) else math.exp(v)


def _psd_sqrt(Sigma: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        if Sigma.ndim > 2:
            return np.stack([_psd_sqrt(S) for S in Sigma])
        w, v = np.linalg.eigh(sym(Sigma))
        return v * np.sqrt(np.clip(w, 0.0, None))


def sample_noise_latents(b_hat: np.ndarray, Sigma: np.ndarray, n_mc: int,
                         rng: np.random.Generator | list[np.random.Generator]) -> np.ndarray:
    """``(n_mc, m)`` gaussian draws from N(b_hat, Sigma); ``(B, n_mc, m)`` for
    a batch, each filter drawing from its own generator."""
    m = b_hat.shape[-1]
    if b_hat.ndim == 1:
        return b_hat + rng.standard_normal((n_mc, m)) @ _psd_sqrt(Sigma).T
    z = np.empty((len(rng), n_mc, m))
    for r, zi in zip(rng, z):
        r.standard_normal(out=zi)
    return b_hat[:, None] + z @ _psd_sqrt(Sigma).swapaxes(-1, -2)


def _sampled(Sigma: np.ndarray) -> bool:
    """Whether :func:`estimate_precision` samples: ``Sigma`` is nonzero. A
    batch mixing zero and nonzero covariances raises ``ValueError``."""
    nonzero = Sigma.any(axis=(-2, -1))
    if nonzero.any() != nonzero.all():
        raise ValueError("a batch mixes zero and nonzero latent covariances")
    return bool(nonzero.any())


def estimate_precision(b_hat: np.ndarray, Sigma: np.ndarray, KPK: np.ndarray,
                       transform: NoiseTransform, n_mc: int,
                       rng: np.random.Generator | list[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of the expected propagated precision.

    Returns ``(A, A_inv)`` with ``A`` the sample mean of ``(KPK + f(b_i))^-1``
    over ``n_mc`` draws ``b_i ~ N(b_hat, Sigma)``. The whole ``(..., n_mc, d,
    d)`` stack of ``KPK + f(b_i)`` goes through one :func:`spd_inv` call, and
    ``A_inv`` through another: ``n_mc + 1`` inversions per filter. Every
    inverse is exactly symmetric, and so is their mean. A zero ``Sigma``
    makes all draws equal ``b_hat``, so sampling is short-circuited: no
    draw is taken and ``A_inv`` is ``KPK + f(b_hat)`` exactly, at one
    inversion. That choice is made for the whole batch (leading filter axis
    on every array, one generator per filter), so a batch must have either
    every ``Sigma`` zero or none, else ``ValueError``. The harness's batches
    (a grid point's seeds) never mix them: they share ``rho_b`` and ``sigma0``.
    """
    return _precision(b_hat, Sigma, KPK, transform, n_mc, rng, _sampled(Sigma))


def _precision(b_hat, Sigma, KPK, transform, n_mc, rng, sampled: bool):
    """:func:`estimate_precision` with its sampling choice made."""
    if not sampled:
        C = KPK + apply_f(transform, b_hat)
        return spd_inv(C), C.copy()
    d = transform.dim
    draws = sample_noise_latents(b_hat, Sigma, n_mc, rng)
    Cs = np.empty(draws.shape[:-1] + (d, d))
    Cs[:] = KPK[..., None, :, :]
    Cs.reshape(-1, d * d)[:, ::d + 1] += noise_diag_batch(transform, draws).reshape(-1, d)
    A = np.add.reduce(spd_inv(Cs), axis=-3) / n_mc  # what mean() runs, without its wrapper
    return A, spd_inv(A)


def update_state_moments(A_inv: np.ndarray, a_hat, s, prior_mean: np.ndarray,
                         x: np.ndarray, y) -> GaussianState:
    """Exact KL-optimal state moments given the expected precision.

    ``A_inv`` plays the role of the propagated prior covariance; the
    effective observation variance is ``exp(a_hat - s/2)``.
    """
    return rank_one_update(prior_mean, A_inv, _exp(a_hat - 0.5 * s), x, y, _dot(x, prior_mean))[0]


def update_s(r2, a_hat, s_prior):
    """Closed-form minimizer of the latent's posterior-variance surrogate.

    ``r2`` is the expected squared residual ``(y - theta.x)^2 + x'Px``;
    ``s_prior`` is the propagated prior variance. The exact s-objective is
    ``r2 e^(-a_hat + s/2) / 2 + s / (2 s_prior) - log(s) / 2``; its first
    term is replaced by the tangent at ``s = 0``, ``r2 e^(-a_hat) (1 + s/2) / 2``.
    The term is convex in ``s``, so the tangent is a *lower* bound on it, not
    an upper one, and the surrogate's minimizer lies between the exact
    minimizer and ``s_prior``: it never raises the exact objective above its
    value at ``s_prior``. The result is always in ``(0, s_prior]`` (clamped
    against the one-ulp double-reciprocal overshoot). Floats, or arrays with
    one value per filter.
    """
    s = 1.0 / (1.0 / s_prior + 0.5 * r2 * _exp(-a_hat))
    return np.minimum(s, s_prior)


def update_a(r2, a_prev, s, s_prior, m_a):
    """Closed-form bound minimizer for the latent's posterior mean.

    A projected gradient step on the expected log-likelihood, clamped to
    ``[a_prev - m_a, a_prev + m_a]``. Floats, or arrays with one value per
    filter.
    """
    scaled = r2 * _exp(-a_prev + 0.5 * s)
    curvature = 1.0 / s_prior + 0.5 * scaled * _exp(m_a)
    a_raw = a_prev + 0.5 * (scaled - 1.0) / curvature
    return np.minimum(np.maximum(a_raw, a_prev - m_a), a_prev + m_a)


def update_b(b_prev: np.ndarray, Sigma_prev: np.ndarray, grad: np.ndarray, H: np.ndarray,
             rho_b: float, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-bound step for the state-noise latent.

    ``Sigma_new = ((Sigma_prev + rho_b I)^-1 + H/2)^-1`` and the mean moves by
    ``-Sigma_new @ grad / 2`` from ``b_prev``, clamped coordinate-wise at
    ``floor`` (0 by default; the filter passes a small positive floor so the
    next step's curvature bound stays defined). Every argument may carry the
    same leading (filter) axes.

    The clamp clips each coordinate of the unconstrained minimizer of the
    quadratic bound. When ``Sigma_new`` is not diagonal, that clipped point
    is not the minimizer of the bound over the box ``b >= floor``, and its
    bound can even exceed the bound at ``b_prev``: of 2625 clamp hits on
    10 000 random 2-d instances shaped like acceptance check c06 (iv), with
    the gradient scaled by 3 (seed 0), 124 did. The clip costs no inversion
    (the budget stays ``n_iter·(n_mc + 4)`` per step), and no run at the
    filter's defaults has been seen to hit it.

    A zero ``Sigma_prev + rho_b I`` (``rho_b = 0`` and no latent
    uncertainty) means ``b`` is known: there is no update, and ``b_prev`` and
    ``Sigma_prev`` are returned as they are, at no inversion. (A batch never
    mixes zero and nonzero covariances; see :func:`estimate_precision`.)
    """
    m = b_prev.shape[-1]
    if grad.shape != b_prev.shape or H.shape != b_prev.shape + (m,) or Sigma_prev.shape != H.shape:
        raise ValueError("inconsistent latent dimensions in update_b")
    prior = Sigma_prev + rho_b * np.eye(m)
    if not prior.any():
        return b_prev.copy(), Sigma_prev.copy()
    return _update_b(b_prev, prior, grad, H, floor)


def _update_b(b_prev, prior, grad, H, floor):
    """:func:`update_b` from its nonzero latent prior ``Sigma_prev + rho_b I``."""
    Sigma_new = spd_inv(spd_inv(prior) + 0.5 * H)
    b_new = np.maximum(b_prev - 0.5 * _matvec(Sigma_new, grad), floor)
    return b_new, Sigma_new


def _propagate(st: VikingState, hyper: VikingHyper) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prior mean, propagated covariance, and its plug-in noise-augmented form."""
    prior_mean = _matvec(hyper.K, st.state.mean)
    KPK = sym(hyper.K @ st.state.cov @ hyper.K.T)
    prop = KPK + apply_f(hyper.transform, st.beliefs.b_hat)
    return prior_mean, KPK, prop


def _predictive(x: np.ndarray, prior_mean: np.ndarray, prop: np.ndarray, bel: VarianceBeliefs):
    return _dot(x, prior_mean), quad_form(x, prop) + _exp(bel.a_hat + 0.5 * bel.s)


def forecast(st: VikingState, hyper: VikingHyper, x: np.ndarray):
    """Plug-in one-step predictive mean and variance for covariates ``x``."""
    prior_mean, _, prop = _propagate(st, hyper)
    return _predictive(x, prior_mean, prop, st.beliefs)


def _step_error(exc: Exception, st: VikingState, filt: int) -> Exception:
    """``exc`` again, naming the step and, in a batch, the filter (also as the
    exception's ``filter``; 0 for a single filter)."""
    where = f"step {st.step_index}, filter {filt}" if isinstance(st.rng, list) else f"step {st.step_index}"
    err = type(exc)(f"{where}: {exc}")
    err.filter = filt
    return err


def viking_step(st: VikingState, hyper: VikingHyper, x: np.ndarray, y) -> tuple[VikingState, StepRecord]:
    """One filtering step; returns the new state and the step record.

    The record holds the pre-update point forecast and predictive variance
    and the post-update beliefs. A batched state (see :func:`stack_states`)
    steps its B filters at once: ``x`` is ``(B, d)``, ``y`` is ``(B,)``, and
    every field of the record but ``t`` and ``cum_sq_err`` gains the leading
    filter axis. Each filter's arithmetic and random draws are the ones it
    gets alone, bit for bit. A single filter steps without the axis (see the
    module docstring).
    Non-finite covariates or observations raise ``ValueError`` and numerical
    singularities ``SingularMatrixError``, naming the step and, in a batch,
    the filter (also as the exception's ``filter``); a batch mixing zero and
    nonzero latent priors raises ``ValueError`` naming the step.
    """
    d = hyper.transform.dim
    batch = st.state.mean.shape[:-1]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != batch + (d,):
        raise ValueError(f"covariates have shape {x.shape}, expected {batch + (d,)}")
    if y.shape != batch:
        raise ValueError(f"observations have shape {y.shape}, expected {batch}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        bad = np.flatnonzero(~(np.isfinite(x).all(axis=-1) & np.isfinite(y)))
        raise _step_error(ValueError("non-finite covariates or observation"), st, int(bad[0]))
    try:
        return _step(st, hyper, x, y if batch else float(y))
    except SingularMatrixError as exc:
        raise _step_error(exc, st, int(exc.index[0]) if batch else 0) from exc
    except ValueError as exc:  # a batch mixing zero and nonzero latent priors
        raise ValueError(f"step {st.step_index}: {exc}") from exc


def _step(st: VikingState, hyper: VikingHyper, x: np.ndarray, y) -> tuple[VikingState, StepRecord]:
    transform = hyper.transform
    bel = st.beliefs
    prior_mean, KPK, prop = _propagate(st, hyper)
    fc_mean, fc_var = _predictive(x, prior_mean, prop, bel)

    a_prev, s_prev = bel.a_hat, bel.s
    b_prev = bel.b_hat
    s_prior = s_prev + hyper.rho_a
    m_a = np.maximum(3.0 * s_prev, M_A_FLOOR)

    a_cur, s_cur = a_prev, s_prior
    b_cur = b_prev.copy()
    # Once per step, not per pass (see the module docstring): the latent
    # prior, its zero test (zero: b is known, no draw and no b bound) and the
    # bound's terms at b_prev. C = prop and the prior are inverted per pass,
    # as c07 counts.
    prior, learn_b = bel.latent_prior(hyper.rho_b, hyper.learn_b)
    sampled = _sampled(prior)
    point = expansion_point(transform, b_prev) if learn_b else None

    Sigma_cur = prior
    state_new = st.state
    for _ in range(hyper.n_iter):
        _, A_inv = _precision(b_cur, Sigma_cur, KPK, transform, hyper.n_mc, st.rng, sampled)
        state_new = update_state_moments(A_inv, a_cur, s_cur, prior_mean, x, y)
        if hyper.learn_a:
            resid = y - _dot(state_new.mean, x)
            r2 = resid * resid + quad_form(x, state_new.cov)
            s_cur = update_s(r2, a_cur, s_prior)
            a_cur = update_a(r2, a_prev, s_cur, s_prior, m_a)
        if learn_b:
            delta = state_new.mean - prior_mean
            B = state_new.cov + delta[..., :, None] * delta[..., None, :]
            grad, H = psi_gradient_hessian_bound(transform, point, B, prop)
            b_cur, Sigma_cur = _update_b(b_prev, prior, grad, H, B_HAT_FLOOR)

    beliefs = VarianceBeliefs(a_cur, s_cur, b_cur, Sigma_cur)
    record = StepRecord(
        t=st.step_index, y=y, forecast=fc_mean, forecast_var=fc_var, residual=y - fc_mean,
        a_hat=a_cur, s=s_cur, sigma2_eff=_exp(a_cur - 0.5 * s_cur),
        b_hat=b_cur.copy(), sigma_diag=Sigma_cur.diagonal(0, -2, -1).copy(),
        cum_sq_err=float("nan"), theta=state_new.mean.copy(), cov=state_new.cov.copy(),
    )
    return VikingState(state_new, beliefs, st.step_index + 1, st.rng), record


_RUN_COLUMNS = ("forecast", "forecast_var", "a_hat", "s", "sigma2_eff", "b_hat", "sigma_diag")


def viking_run_batch(x: np.ndarray, y: np.ndarray, hyper: VikingHyper, inits: list[VikingState],
                     keep_state: bool) -> tuple[list[Trace], VikingState]:
    """Run B filters, filter ``b`` from ``inits[b]`` on series ``x[:, b]``,
    ``y[:, b]``, with one :func:`viking_step` call per time step for all of
    them; one trace per filter, and the final state (batched for B > 1).

    ``x`` is ``(n, B, d)`` and ``y`` ``(n, B)``; the inits must be at the same
    step. The outputs are written into ``(n, B)`` columns, and each filter's
    trace is the one it gets alone. ``keep_state`` adds the ``theta``/``cov``
    columns. One filter steps without the filter axis (see the module
    docstring). With ``learn_b`` on, a filter whose latent is uncertain and
    not positive in every coordinate (``q0 <= 0``), where the ``b`` bound is
    undefined, raises ``ValueError`` naming it before the first step, as does
    a Gaussian state that is not a finite ``(d,)`` mean with a finite,
    symmetric, PSD ``(d, d)`` covariance (starting ``init``, and naming the
    filter in a batch).
    """
    n, B, d = x.shape
    if d != hyper.transform.dim:
        raise ValueError(f"dataset dimension {d} does not match filter dimension {hyper.transform.dim}")
    if y.shape != (n, B) or len(inits) != B:
        raise ValueError(f"{len(inits)} initial states and observations of shape {y.shape} for x of shape {x.shape}")
    for b, init in enumerate(inits):
        _check_init(init.state, d, "init" if B == 1 else f"init, filter {b}")
    st = inits[0] if B == 1 else stack_states(inits)
    m = hyper.transform.latent_dim
    bad = [b for b, init in enumerate(inits)
           if init.beliefs.latent_prior(hyper.rho_b, hyper.learn_b)[1] and (init.beliefs.b_hat <= 0.0).any()]
    if bad:
        raise _step_error(ValueError("q0 must be > 0 in every coordinate when b is learned"), st, bad[0])
    xs, ys = (x[:, 0], y[:, 0]) if B == 1 else (x, y)
    names = _RUN_COLUMNS + (("theta", "cov") if keep_state else ())
    cols = {name: np.empty((n, B) + shape) for name, shape in
            zip(names, ((),) * 5 + ((m,), (m,), (d,), (d, d)))}
    t0 = st.step_index
    for t in range(n):
        st, rec = viking_step(st, hyper, xs[t], ys[t])
        for name in names:
            cols[name][t] = getattr(rec, name)
    traces = split_traces(np.arange(t0, t0 + n), y, **cols)
    return traces, st


def viking_run(series, hyper: VikingHyper, init: VikingState | None = None) -> tuple[Trace, VikingState]:
    """Run the filter over a dataset: :func:`viking_run_batch` with B = 1.

    The trace includes the cumulative second-half error and the state columns.
    """
    init = init if init is not None else default_initial_state(hyper.transform)
    traces, st = viking_run_batch(series.x[:, None], series.y[:, None], hyper, [init], keep_state=True)
    return traces[0], st


def state_to_checkpoint(st: VikingState) -> dict:
    """Flat numeric record of the full state; json round-trips it exactly. A
    checkpoint holds one filter: a batched state raises ``ValueError``."""
    if isinstance(st.rng, list):
        raise ValueError(f"a checkpoint holds one filter; this state has a filter axis of {len(st.rng)}")
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


# a checkpoint's integer fields, each with its width in bits
_CHECKPOINT_INTS = {"step_index": 63, "rng_state": 128, "rng_inc": 128, "rng_has_uint32": 1, "rng_uinteger": 32}


def state_from_checkpoint(rec: dict) -> VikingState:
    """The state :func:`state_to_checkpoint` recorded. A missing field, an
    array field that is not a number or a flat list of numbers, a non-finite
    value, a size that does not fit the others, or an integer field that is
    not an int in ``[0, 2**width)`` raises ``ValueError`` naming its field."""
    for name in ("mean", "cov", "a_hat", "s", "b_hat", "Sigma", *_CHECKPOINT_INTS):
        if name not in rec:
            raise ValueError(f"checkpoint field {name!r} is missing")
    for name, bits in _CHECKPOINT_INTS.items():
        v = rec[name]
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or not 0 <= v < 2**bits:
            raise ValueError(f"checkpoint field {name!r} must be an integer in [0, 2**{bits}), got {v!r}")
    arrays = {}
    for name in ("mean", "cov", "a_hat", "s", "b_hat", "Sigma"):
        try:
            arrays[name] = np.array(rec[name], dtype=float)
        except (TypeError, ValueError):  # a string, a ragged list, ...
            raise ValueError(f"checkpoint field {name!r} must be a number or a flat list of numbers, "
                             f"got {rec[name]!r}") from None
    d, m = arrays["mean"].size, arrays["b_hat"].size
    for name, shape in (("mean", (d,)), ("cov", (d * d,)), ("a_hat", ()), ("s", ()),
                        ("b_hat", (m,)), ("Sigma", (m * m,))):
        v = arrays[name]
        if v.shape != shape or not v.size:
            raise ValueError(f"checkpoint field {name!r} has shape {v.shape}, expected {shape} (d = {d}, m = {m})")
        if not np.isfinite(v).all():
            raise ValueError(f"checkpoint field {name!r} holds a non-finite value")
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": "PCG64",
        "state": {"state": rec["rng_state"], "inc": rec["rng_inc"]},
        "has_uint32": rec["rng_has_uint32"],
        "uinteger": rec["rng_uinteger"],
    }
    return VikingState(
        GaussianState(arrays["mean"], arrays["cov"].reshape(d, d)),
        VarianceBeliefs(float(arrays["a_hat"]), float(arrays["s"]), arrays["b_hat"],
                        arrays["Sigma"].reshape(m, m)),
        int(rec["step_index"]),
        np.random.Generator(bg),
    )
