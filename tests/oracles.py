"""Independent numeric oracles used across the test suite.

Everything here recomputes expected values through routes that do not share
code with the library: central finite differences, dense-grid/golden-section
scalar minimization, coordinate descent for quadratics, quadrature posterior
moments, and direct transcriptions of the per-update objective functions.
Matrix work uses plain ``np.linalg`` (LU-based), not the library's Cholesky
helpers.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate


def central_diff_gradient(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.zeros(len(x))
    for j in range(len(x)):
        up = x.copy()
        dn = x.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def central_diff_hessian(fn, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    n = len(x)
    H = np.zeros((n, n))
    f0 = fn(x)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                up = x.copy()
                dn = x.copy()
                up[i] += h
                dn[i] -= h
                H[i, i] = (fn(up) - 2.0 * f0 + fn(dn)) / (h * h)
            else:
                pp = x.copy(); pp[i] += h; pp[j] += h
                pm = x.copy(); pm[i] += h; pm[j] -= h
                mp = x.copy(); mp[i] -= h; mp[j] += h
                mm = x.copy(); mm[i] -= h; mm[j] -= h
                H[i, j] = H[j, i] = (fn(pp) - fn(pm) - fn(mp) + fn(mm)) / (4.0 * h * h)
    return H


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_scalar(fn, lo: float, hi: float, n_grid: int = 400, tol: float = 1e-12) -> float:
    """Coarse grid scan followed by golden-section refinement."""
    grid = np.linspace(lo, hi, n_grid)
    values = [fn(g) for g in grid]
    k = int(np.argmin(values))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n_grid - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > tol * (1.0 + abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def minimize_quadratic_coordinate_descent(lin: np.ndarray, M: np.ndarray,
                                          n_sweeps: int = 500, tol: float = 1e-14) -> np.ndarray:
    """Minimize ``lin @ z + 0.5 z' M z`` by cyclic coordinate descent."""
    z = np.zeros(len(lin))
    for _ in range(n_sweeps):
        delta = 0.0
        for j in range(len(lin)):
            others = M[j] @ z - M[j, j] * z[j]
            new = -(lin[j] + others) / M[j, j]
            delta = max(delta, abs(new - z[j]))
            z[j] = new
        if delta < tol:
            break
    return z


def quadrature_posterior_1d(m0: float, v0: float, x: float, y: float,
                            sigma2: float) -> tuple[float, float]:
    """Posterior moments for a scalar gaussian prior and one observation, by quadrature."""

    def weight(theta):
        return math.exp(-0.5 * (theta - m0) ** 2 / v0 - 0.5 * (y - theta * x) ** 2 / sigma2)

    lo, hi = m0 - 12.0 * math.sqrt(v0), m0 + 12.0 * math.sqrt(v0)
    z0, _ = scipy.integrate.quad(weight, lo, hi, limit=200)
    z1, _ = scipy.integrate.quad(lambda t: t * weight(t), lo, hi, limit=200)
    mean = z1 / z0
    z2, _ = scipy.integrate.quad(lambda t: (t - mean) ** 2 * weight(t), lo, hi, limit=200)
    return mean, z2 / z0


def state_objective(theta: np.ndarray, P: np.ndarray, A: np.ndarray, prior_mean: np.ndarray,
                    x: np.ndarray, y: float, a_hat: float, s: float) -> float:
    """KL terms that depend on the state moments, with the precision held fixed."""
    delta = theta - prior_mean
    quad = np.trace((P + np.outer(delta, delta)) @ A)
    fit = ((y - theta @ x) ** 2 + x @ P @ x) * math.exp(-a_hat + 0.5 * s)
    sign, logdet = np.linalg.slogdet(P)
    assert sign > 0
    return float(0.5 * quad + 0.5 * fit - 0.5 * logdet)


def s_bound(s: float, r2: float, a_hat: float, s_prior: float) -> float:
    """Surrogate minimized by the latent-variance update: :func:`s_objective`
    with its convex ``r2 e^(-a_hat + s/2) / 2`` term replaced by the tangent
    at ``s = 0``, a lower bound on that term (constant terms dropped)."""
    return 0.25 * r2 * math.exp(-a_hat) * s + 0.5 * s / s_prior - 0.5 * math.log(s)


def s_objective(s: float, r2: float, a_hat: float, s_prior: float) -> float:
    """Exact per-step objective in the latent's posterior variance ``s``."""
    return 0.5 * r2 * math.exp(-a_hat + 0.5 * s) + 0.5 * s / s_prior - 0.5 * math.log(s)


def s_objective_minimizer(r2: float, a_hat: float, s_prior: float) -> float:
    """Minimizer of :func:`s_objective` on ``(0, s_prior]``, by bisection on its
    increasing derivative (a lower end of the final bracket)."""
    def slope(s):
        return 0.25 * r2 * math.exp(-a_hat + 0.5 * s) + 0.5 / s_prior - 0.5 / s

    if slope(s_prior) <= 0.0:
        return s_prior
    lo, hi = 0.0, s_prior
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if mid > 0.0 and slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def a_objective(a: float, r2: float, a_prev: float, s: float, s_prior: float) -> float:
    """Exact per-step objective in the latent's posterior mean ``a`` for a given ``s``."""
    return 0.5 * r2 * math.exp(-a + 0.5 * s) + 0.5 * (a - a_prev) ** 2 / s_prior + 0.5 * a


def a_bound(a: float, r2: float, a_prev: float, s: float, s_prior: float, m_a: float) -> float:
    """Upper bound minimized by the latent-mean update, valid on |a - a_prev| <= m_a."""
    u = a - a_prev
    fit = 0.5 * r2 * math.exp(-a_prev + 0.5 * s) * (-u + 0.5 * math.exp(m_a) * u * u)
    return fit + 0.5 * u * u / s_prior + 0.5 * a


def b_bound(b: np.ndarray, Sigma: np.ndarray, b_prev: np.ndarray, Sigma_prev: np.ndarray,
            grad: np.ndarray, H: np.ndarray, rho_b: float) -> float:
    """Quadratic upper bound minimized by the state-noise latent update."""
    m = len(b_prev)
    M = np.linalg.inv(Sigma_prev + rho_b * np.eye(m)) + 0.5 * H
    delta = b - b_prev
    sign, logdet = np.linalg.slogdet(Sigma)
    assert sign > 0
    return float(-0.5 * logdet + 0.5 * grad @ delta
                 + 0.5 * np.trace((Sigma + np.outer(delta, delta)) @ M))


def rand_spd(rng: np.random.Generator, d: int, ridge: float = 0.5) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return a @ a.T / d + ridge * np.eye(d)


def _stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def noniid_design_rowwise(n: int, seed: int, walk_var: float) -> np.ndarray:
    """The non-i.i.d. design as a row-wise numpy recursion: each row is the
    previous one plus its step, with values outside [0, 1] mapped to
    ``ceil(z) - z``. Draws from the design stream (spawn key 0)."""
    rng = _stream(seed, 0)
    x = np.empty((n, 5))
    x[:, 4] = 1.0
    x[0, :4] = rng.random(4)
    steps = rng.normal(0.0, math.sqrt(walk_var), size=(n - 1, 4)) if n > 1 else np.empty((0, 4))
    for t in range(1, n):
        z = x[t - 1, :4] + steps[t - 1]
        x[t, :4] = np.where((z >= 0.0) & (z <= 1.0), z, np.ceil(z) - z)
    return x


def misspecified_states_rowwise(n: int, seed: int, q_diag: np.ndarray, theta0=None) -> np.ndarray:
    """The mixture's two contracting states, ``(n, 2, d)``, as a row-wise numpy
    recursion ``state_t = 0.9 state_{t-1} + noise_t``. Initial states from
    spawn key 1 (or ``theta0`` for both), noise from spawn key 2."""
    d = q_diag.shape[1]
    prev = np.tile(np.asarray(theta0, dtype=float), (2, 1)) if theta0 is not None \
        else _stream(seed, 1).standard_normal((2, d))
    noise = _stream(seed, 2).standard_normal((n, 2, d)) * np.sqrt(q_diag)[:, None, :]
    states = np.empty((n, 2, d))
    for t in range(n):
        prev = 0.9 * prev + noise[t]
        states[t] = prev
    return states
