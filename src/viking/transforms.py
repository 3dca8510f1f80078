"""State-noise transforms and the log-det objective driving their update.

A latent vector ``b`` parameterizes the state-noise covariance through a map
that is zero on negatives and ``log(1+b)`` on nonnegatives, applied either as
one shared coefficient times the identity (scalar kind) or coordinate-wise on
the diagonal (diagonal kind). Keeping the active branch concave is what makes
belief uncertainty shrink, rather than inflate, the filter's effective step.

``psi_value`` is the objective ``logdet(C(b)) + tr(B C(b)^-1)`` with
``C(b) = KPK + f(b)``. ``psi_gradient_hessian_bound`` returns its gradient at
an expansion point and a symmetric PSD matrix dominating its Hessian there,
from one inverse of ``C`` (precomputed, so callers control how often it is
factored); ``psi_gradient`` and ``psi_hessian_bound`` are its two halves.
The terms that depend only on the expansion point come from
``expansion_point``, so a filter evaluating the bound in several passes at
one point forms them once.
At the kink ``b = 0`` the derivative helpers use the right limits
(``phi_d1(0) = 1``, ``phi_d2(0) = -1``), which keeps the update formulas
continuous as a clamped latent approaches zero from above. All three map a
NaN to NaN (``np.maximum`` propagates it), so a NaN latent shows in every
output it reaches; the parameters that could produce one (``rho_b``, ``q0``,
``sigma0``) are rejected where the filter's settings and initial state are
built, not per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import linalg
from .checks import check_count
from .linalg import spd_factor, spd_inv, sym


class TransformKind(Enum):
    SCALAR = "scalar"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class NoiseTransform:
    """Mapping from the noise latent to a PSD diagonal state-noise matrix.

    ``dim`` is the state dimension. The scalar kind has a 1-dimensional
    latent and produces ``phi(b) * I``; the diagonal kind has a
    ``dim``-dimensional latent mapped coordinate-wise onto the diagonal.
    A ``dim`` that is not an integer >= 1 raises ``ValueError``.
    """

    kind: TransformKind
    dim: int

    def __post_init__(self) -> None:
        check_count("state dimension", self.dim, 1)

    @property
    def latent_dim(self) -> int:
        return 1 if self.kind is TransformKind.SCALAR else self.dim

    @classmethod
    def scalar(cls, dim: int) -> "NoiseTransform":
        return cls(TransformKind.SCALAR, dim)

    @classmethod
    def diagonal(cls, dim: int) -> "NoiseTransform":
        return cls(TransformKind.DIAGONAL, dim)


def _as_float(out: np.ndarray):
    return out if out.ndim else float(out)


def _on_active_branch(b, fn):
    """``fn(b)`` on nonnegatives, zero on negatives, NaN on NaN; elementwise,
    a float for a float."""
    b = np.asarray(b, dtype=float)
    return _as_float(np.where(b < 0.0, 0.0, fn(np.maximum(b, 0.0))))


def phi(b):
    """Zero on negatives, ``log(1+b)`` on nonnegatives, NaN on NaN. Since
    ``log1p(0) = 0``, clamping at zero is the whole branch."""
    return _as_float(np.log1p(np.maximum(np.asarray(b, dtype=float), 0.0)))


def phi_d1(b):
    """First derivative of :func:`phi`; right limit 1 at the kink."""
    return _on_active_branch(b, lambda u: 1.0 / (1.0 + u))


def phi_d2(b):
    """Second derivative of :func:`phi`; right limit -1 at the kink."""
    return _on_active_branch(b, lambda u: -1.0 / (1.0 + u) ** 2)


def _check_latent(transform: NoiseTransform, b: np.ndarray) -> np.ndarray:
    """One latent ``(latent_dim,)``, or one per filter of a stack ``(..., latent_dim)``."""
    b = np.asarray(b, dtype=float)
    if b.shape[-1:] != (transform.latent_dim,):
        raise ValueError(
            f"latent has shape {b.shape}, expected ({transform.latent_dim},) for kind {transform.kind.value}"
        )
    return b


def noise_diag_batch(transform: NoiseTransform, draws: np.ndarray) -> np.ndarray:
    """Diagonals of ``f(b_i)`` for a ``(..., latent_dim)`` stack of latents.

    The scalar kind is the diagonal kind with its one latent broadcast to
    every coordinate.
    """
    f = phi(draws)
    return f if transform.latent_dim == transform.dim else np.broadcast_to(f, draws.shape[:-1] + (transform.dim,))


def apply_f(transform: NoiseTransform, b: np.ndarray) -> np.ndarray:
    """PSD diagonal state-noise matrix ``f(b)``, or one per latent of a stack."""
    diag = noise_diag_batch(transform, _check_latent(transform, b))
    if diag.ndim == 1:
        return np.diag(diag)
    out = np.zeros(diag.shape + diag.shape[-1:])
    out.reshape(diag.shape[:-1] + (-1,))[..., ::transform.dim + 1] = diag
    return out


def psi_value(transform: NoiseTransform, b: np.ndarray, B: np.ndarray, KPK: np.ndarray) -> float:
    """``logdet(KPK + f(b)) + tr(B (KPK + f(b))^-1)``, from one Cholesky factor.

    The trace term solves with that factor by LAPACK ``dpotrs``, bound by
    :mod:`viking.linalg` with ``dpotrf``: the routine and arguments scipy's
    ``cho_solve`` passes, so the same bits, without importing
    ``scipy.linalg``. The filter never evaluates it (its ``b`` update needs
    only the gradient and the Hessian bound).
    """
    C = KPK + apply_f(transform, b)
    factor = spd_factor(C)
    logdet = 2.0 * np.sum(np.log(np.diagonal(factor)))
    trace = np.trace(linalg.dpotrs(factor, B, lower=1)[0])
    return float(logdet + trace)


def _fold(transform: NoiseTransform, v: np.ndarray, core: int) -> np.ndarray:
    """Per-coordinate derivative summed back onto the latent, over the last
    ``core`` axes of ``v`` (one filter's gradient or curvature).

    The scalar kind's one latent feeds every coordinate, so by the chain rule
    its gradient and curvature are the sums over the coordinates.
    """
    if transform.latent_dim == transform.dim:
        return v
    return v.sum(axis=tuple(range(-core, 0)), keepdims=True)


class ExpansionPoint(NamedTuple):
    """The terms of the Hessian bound that depend only on its expansion point
    ``b_hat``: ``phi'(b_hat)``, its outer product and ``phi''(b_hat)``."""

    d1: np.ndarray
    d1_outer: np.ndarray
    d2: np.ndarray


def expansion_point(transform: NoiseTransform, b_hat: np.ndarray) -> ExpansionPoint:
    """:class:`ExpansionPoint` at ``b_hat`` (one latent or a stack), which must
    be positive in every coordinate; a filter forms it once per step.

    Every coordinate is on :func:`phi`'s active branch, so ``phi'`` and
    ``phi''`` are its formulas alone, the bits :func:`phi_d1` and
    :func:`phi_d2` give there."""
    b_hat = _check_latent(transform, b_hat)
    if np.any(b_hat <= 0.0):
        raise ValueError(
            "hessian bound requires f(b_hat) positive definite: every latent coordinate must be > 0"
        )
    onep = 1.0 + b_hat
    d1 = 1.0 / onep
    return ExpansionPoint(d1, d1[..., :, None] * d1[..., None, :], -1.0 / (onep * onep))


def _derivatives(transform: NoiseTransform, B: np.ndarray, C: np.ndarray, d1: np.ndarray,
                 d1_outer: np.ndarray | None = None, d2: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradient with ``phi'(b_hat) = d1``, and the Hessian bound if the rest of
    the :class:`ExpansionPoint` (``d1_outer``, ``d2``) is given, from one
    inverse of ``C``.

    ``C^-1 B C^-1`` is formed once and shared by both. Every argument may
    carry the same leading (filter) axes; each filter's arithmetic is the
    same as when it is passed alone.
    """
    C_inv = spd_inv(C)
    MBM = C_inv @ B @ C_inv
    mbm_diag = MBM.diagonal(0, -2, -1)
    grad = _fold(transform, (C_inv.diagonal(0, -2, -1) - mbm_diag) * d1, 1)
    if d1_outer is None:
        return grad, None
    H = 2.0 * MBM * C_inv * d1_outer
    d = transform.dim
    H.reshape(H.shape[:-2] + (d * d,))[..., ::d + 1] -= mbm_diag * d2
    return grad, _fold(transform, sym(H), 2)


def psi_gradient(transform: NoiseTransform, b_hat: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Gradient of ``psi`` at ``b_hat``, with ``C = KPK + f(b_hat)`` precomputed."""
    return _derivatives(transform, B, C, phi_d1(_check_latent(transform, b_hat)))[0]


def psi_hessian_bound(transform: NoiseTransform, b_hat: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Symmetric PSD matrix dominating the Hessian of ``psi`` at ``b_hat``.

    Requires every coordinate of ``b_hat`` strictly positive (callers clamp
    their latents to a small positive floor before evaluating this).
    """
    return psi_gradient_hessian_bound(transform, b_hat, B, C)[1]


def psi_gradient_hessian_bound(
    transform: NoiseTransform, b_hat: np.ndarray | ExpansionPoint, B: np.ndarray, C: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian bound sharing a single factorization of ``C``.

    ``b_hat`` may be given as its :func:`expansion_point`, which a caller
    evaluating several ``B`` at one ``b_hat`` forms once; the bits are the same.
    """
    point = b_hat if isinstance(b_hat, ExpansionPoint) else expansion_point(transform, b_hat)
    return _derivatives(transform, B, C, *point)
