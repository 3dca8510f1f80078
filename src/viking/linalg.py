"""Small dense SPD helpers shared by the filters.

Every SPD inversion in the package funnels through one kernel,
:func:`spd_inv`, which takes one matrix or any stack the same way, so tests
can assert per-step inversion budgets via ``spd_inversion_count``. Each
matrix is factored with LAPACK ``potrf`` and its factor inverted with
``trtri``; one stacked product forms ``L^-T L^-1`` for the whole stack.
These kernels give the same bits whatever the BLAS thread count, and a
matrix gets the same bits in a stack as alone. The inverse is exactly
symmetric as the product forms it, with no symmetrising pass: the right
operand is the left one's buffer transposed, so numpy's matmul sees
``A @ A^T``, computes one triangle with BLAS ``syrk`` and mirrors it into
the other, on any BLAS. That holds only while the right operand stays a
view of the left one's buffer; a copy would need :func:`sym` again
(``tests/test_linalg.py::test_inverse_is_exactly_symmetric_as_the_product_forms_it``
pins it at d = 33 and 64, ``test_stack_matches_alone_symmetric_and_counted``
up to d = 20, each for one matrix and a stack). A matrix that fails to factor
gets a single jitter retry (``1e-10 * trace/dim`` added to the diagonal) and
then raises :class:`SingularMatrixError`.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

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


def spd_inv(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric inverse of an SPD matrix, or of each in a ``(..., d, d)``
    stack. Counts as one inversion per matrix.

    ``m`` must be symmetric (one triangle is read). Each matrix is inverted
    through its Cholesky factor ``L`` as ``L^-T L^-1`` and gets the bits it
    gets alone; a failure carries the stack index of its matrix as ``index``.
    """
    global _inversions
    d = m.shape[-1]
    stack = m.reshape(-1, d, d)
    out = stack.astype(float, order="C")
    # column-major views, which LAPACK factors and inverts in place (f2py
    # copies nothing); positional flags keep the loop tight
    cols = out.swapaxes(-1, -2)
    for i in range(len(out)):
        if dpotrf(cols[i], 1, 1, 1)[1]:  # lower, clean, overwrite_a
            try:
                cols[i] = spd_factor(stack[i].T)
            except SingularMatrixError as exc:
                exc.index = np.unravel_index(i, m.shape[:-2]) if m.ndim > 2 else None
                raise
        dtrtri(cols[i], 1, 0, 1)  # lower, unitdiag, overwrite_c: cannot fail after potrf
    _inversions += len(out)
    # read in C order, out holds each L^-T; cols holds each L^-1. cols must
    # stay a view of out: numpy then runs syrk on A @ A^T and mirrors the
    # triangle, which makes the product exactly symmetric without sym
    return (out @ cols).reshape(m.shape)
