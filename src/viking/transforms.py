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
At the kink ``b = 0`` the derivative helpers use the right limits
(``phi_d1(0) = 1``, ``phi_d2(0) = -1``), which keeps the update formulas
continuous as a clamped latent approaches zero from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import spd_factor, spd_inv, sym

import scipy.linalg


class TransformKind(Enum):
    SCALAR = "scalar"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class NoiseTransform:
    """Mapping from the noise latent to a PSD diagonal state-noise matrix.

    ``dim`` is the state dimension. The scalar kind has a 1-dimensional
    latent and produces ``phi(b) * I``; the diagonal kind has a
    ``dim``-dimensional latent mapped coordinate-wise onto the diagonal.
    """

    kind: TransformKind
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.dim}")

    @property
    def latent_dim(self) -> int:
        return 1 if self.kind is TransformKind.SCALAR else self.dim

    @classmethod
    def scalar(cls, dim: int) -> "NoiseTransform":
        return cls(TransformKind.SCALAR, dim)

    @classmethod
    def diagonal(cls, dim: int) -> "NoiseTransform":
        return cls(TransformKind.DIAGONAL, dim)


def _on_active_branch(b, fn):
    """``fn(b)`` on nonnegatives, zero on negatives; elementwise, a float for a float."""
    b = np.asarray(b, dtype=float)
    out = np.where(b >= 0.0, fn(np.maximum(b, 0.0)), 0.0)
    return out if out.ndim else float(out)


def phi(b):
    """Zero on negatives, ``log(1+b)`` on nonnegatives."""
    return _on_active_branch(b, np.log1p)


def phi_d1(b):
    """First derivative of :func:`phi`; right limit 1 at the kink."""
    return _on_active_branch(b, lambda u: 1.0 / (1.0 + u))


def phi_d2(b):
    """Second derivative of :func:`phi`; right limit -1 at the kink."""
    return _on_active_branch(b, lambda u: -1.0 / (1.0 + u) ** 2)


def _check_latent(transform: NoiseTransform, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (transform.latent_dim,):
        raise ValueError(
            f"latent has shape {b.shape}, expected ({transform.latent_dim},) for kind {transform.kind.value}"
        )
    return b


def noise_diag_batch(transform: NoiseTransform, draws: np.ndarray) -> np.ndarray:
    """Diagonals of ``f(b_i)`` for a ``(k, latent_dim)`` stack of latents.

    The scalar kind is the diagonal kind with its one latent broadcast to
    every coordinate.
    """
    return np.broadcast_to(phi(draws), (draws.shape[0], transform.dim))


def apply_f(transform: NoiseTransform, b: np.ndarray) -> np.ndarray:
    """PSD diagonal state-noise matrix ``f(b)``."""
    return np.diag(noise_diag_batch(transform, _check_latent(transform, b)[None])[0])


def psi_value(transform: NoiseTransform, b: np.ndarray, B: np.ndarray, KPK: np.ndarray) -> float:
    """``logdet(KPK + f(b)) + tr(B (KPK + f(b))^-1)``."""
    C = KPK + apply_f(transform, b)
    factor = spd_factor(C)
    logdet = 2.0 * np.sum(np.log(np.diagonal(factor)))
    trace = np.trace(scipy.linalg.cho_solve((factor, True), B, check_finite=False))
    return float(logdet + trace)


def _fold(transform: NoiseTransform, v: np.ndarray) -> np.ndarray:
    """Per-coordinate derivative summed back onto the latent.

    The scalar kind's one latent feeds every coordinate, so by the chain rule
    its gradient and curvature are the sums over the coordinates.
    """
    return v if transform.latent_dim == transform.dim else np.full((1,) * v.ndim, v.sum())


def _check_expansion_point(b_hat: np.ndarray) -> None:
    if np.any(b_hat <= 0.0):
        raise ValueError(
            "hessian bound requires f(b_hat) positive definite: every latent coordinate must be > 0"
        )


def _derivatives(transform: NoiseTransform, b_hat: np.ndarray, B: np.ndarray, C: np.ndarray,
                 bound: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradient, and the Hessian bound if ``bound``, from one inverse of ``C``.

    ``C^-1 B C^-1`` and ``phi'(b_hat)`` are formed once and shared by both.
    """
    b_hat = _check_latent(transform, b_hat)
    if bound:
        _check_expansion_point(b_hat)
    C_inv = spd_inv(C)
    MBM = C_inv @ B @ C_inv
    d1 = phi_d1(b_hat)
    grad = _fold(transform, np.diagonal(C_inv - MBM) * d1)
    if not bound:
        return grad, None
    H = 2.0 * MBM * C_inv * (d1[:, None] * d1)
    d = transform.dim
    H.reshape(d * d)[::d + 1] -= np.diagonal(MBM) * phi_d2(b_hat)
    return grad, _fold(transform, sym(H))


def psi_gradient(transform: NoiseTransform, b_hat: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Gradient of ``psi`` at ``b_hat``, with ``C = KPK + f(b_hat)`` precomputed."""
    return _derivatives(transform, b_hat, B, C, bound=False)[0]


def psi_hessian_bound(transform: NoiseTransform, b_hat: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Symmetric PSD matrix dominating the Hessian of ``psi`` at ``b_hat``.

    Requires every coordinate of ``b_hat`` strictly positive (callers clamp
    their latents to a small positive floor before evaluating this).
    """
    return _derivatives(transform, b_hat, B, C, bound=True)[1]


def psi_gradient_hessian_bound(
    transform: NoiseTransform, b_hat: np.ndarray, B: np.ndarray, C: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian bound sharing a single factorization of ``C``."""
    return _derivatives(transform, b_hat, B, C, bound=True)
