"""Small dense SPD helpers shared by the filters.

Every SPD inversion in the package funnels through :func:`spd_inv` or
:func:`spd_inv_batch`, so tests can assert per-step inversion budgets via
``spd_inversion_count``. Inverses go through a Cholesky factorization
(LAPACK ``potrf``/``potri``); a matrix that fails to factor gets a single
jitter retry (``1e-10 * trace/dim`` added to the diagonal) and then raises
:class:`SingularMatrixError`.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

JITTER_SCALE = 1e-10


class SingularMatrixError(np.linalg.LinAlgError):
    """SPD factorization failed even after the one-shot jitter retry.

    ``index`` is the failing matrix's index in a stack given to
    :func:`spd_inv`, ``None`` for one matrix.
    """

    index: tuple[int, ...] | None = None


_inversions = 0


def spd_inversion_count() -> int:
    """Number of SPD inversions performed since the last reset."""
    return _inversions


def reset_spd_inversion_count() -> None:
    global _inversions
    _inversions = 0


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a square matrix, or of each in a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


_eye_cache: dict[int, np.ndarray] = {}


def eye(n: int) -> np.ndarray:
    """Cached identity; treat as read-only."""
    out = _eye_cache.get(n)
    if out is None:
        out = np.eye(n)
        out.setflags(write=False)
        _eye_cache[n] = out
    return out


_strict_lower_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the strict lower triangle onto the upper one, in place (of each matrix of a stack)."""
    n = a.shape[-1]
    idx = _strict_lower_cache.get(n)
    if idx is None:
        idx = np.tril_indices(n, -1)
        _strict_lower_cache[n] = idx
    a[..., idx[1], idx[0]] = a[..., idx[0], idx[1]]
    return a


def _jittered(m: np.ndarray) -> np.ndarray:
    jitter = JITTER_SCALE * float(np.trace(m)) / m.shape[0]
    if not np.isfinite(jitter) or jitter <= 0.0:
        raise SingularMatrixError("matrix is not positive definite and has no usable jitter scale")
    return m + jitter * np.eye(m.shape[0])


def spd_factor(m: np.ndarray):
    """Lower Cholesky factor of ``m``, with the one-shot jitter retry."""
    factor, info = dpotrf(m, lower=1)
    if info == 0:
        return factor
    factor, info = dpotrf(_jittered(m), lower=1)
    if info != 0:
        raise SingularMatrixError("matrix is not positive definite (jitter retry failed)")
    return factor


def _potri(m: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix from its Cholesky factor; only the lower triangle is filled."""
    inv, info = dpotri(spd_factor(m), lower=1)
    if info != 0:
        raise SingularMatrixError("inverse from Cholesky factor failed")
    return inv


def spd_inv(m: np.ndarray) -> np.ndarray:
    """Symmetrized Cholesky-based inverse of an SPD matrix. Counts as one inversion.

    A stack ``(..., d, d)`` is inverted one matrix at a time (numpy has no
    batched ``potri``), each result column-major as ``potri`` leaves it; a
    failure carries the stack index of its matrix as ``index``.
    """
    global _inversions
    if m.ndim == 2:
        inv = _mirror_lower(_potri(m))
        _inversions += 1
        return inv
    stack = m.reshape((-1,) + m.shape[-2:])
    out = np.empty(stack.shape).swapaxes(-1, -2)
    for i, a in enumerate(stack):
        try:
            out[i] = _potri(a)
        except SingularMatrixError as exc:
            exc.index = np.unravel_index(i, m.shape[:-2])
            raise
    _inversions += len(stack)
    return _mirror_lower(out).reshape(m.shape)


def spd_inv_batch(ms: np.ndarray) -> np.ndarray:
    """Inverses of a stack of SPD matrices, shape ``(..., d, d)``.

    Counts as one inversion per matrix. The fast path factors the whole stack
    at once; if any matrix fails it falls back to per-matrix :func:`spd_inv`
    so each one gets its own jitter retry.
    """
    global _inversions
    try:
        chol = np.linalg.cholesky(ms)
    except np.linalg.LinAlgError:
        return spd_inv(ms)
    chol_inv = np.linalg.inv(chol)
    inv = chol_inv.swapaxes(-1, -2) @ chol_inv
    _inversions += ms[..., 0, 0].size
    return sym(inv)
