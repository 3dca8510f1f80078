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

The LAPACK routines are scipy's ``dpotrf`` and ``dtrtri`` (and ``dpotrs``
for :func:`viking.transforms.psi_value`), bound the first time something is
factored, not when the module is imported, so the runs that factor no matrix
(the Kalman baselines, the data generators, the CSV codec and the command
line's argument handling) load no scipy module. Binding imports the
top-level ``scipy`` package and loads the f2py extension
``scipy/linalg/_flapack`` by file, registered in ``sys.modules`` under its
own name (or reuses it when something has imported it already). It does not
import the ``scipy.linalg`` package, whose init loads ``numpy.f2py`` and
``numpy.testing`` (through ``scipy._lib._array_api``), none of which the
filter uses. A later ``import scipy.linalg`` adopts the registered module
(scipy reaches it only by ``from`` imports), so ``scipy.linalg.lapack.dpotrf``
is the very routine bound here, with the same bits. A missing extension
raises ``ImportError`` naming the directory searched.

numpy's own ``linalg`` is no substitute on the filter's path: it is slower
per small matrix and bundles another OpenBLAS, whose ``potrf`` gives other
bits on some matrices. The names stay module attributes (a module
``__getattr__`` binds them on first access), so ``viking.linalg.dpotrf``
can be read or replaced before any factorization; the kernels read them
through the module, once per call, not once per matrix.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np

JITTER_SCALE = 1e-10
_LAPACK = ("dpotrf", "dtrtri", "dpotrs")
_FLAPACK = "scipy.linalg._flapack"
_module = sys.modules[__name__]


def _flapack():
    """scipy's LAPACK extension module, loaded by file without importing the
    ``scipy.linalg`` package, or the one already in ``sys.modules``."""
    if _FLAPACK not in sys.modules:
        import scipy

        path = os.path.join(scipy.__path__[0], "linalg")
        spec = FileFinder(path, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_FLAPACK)
        if spec is None:
            raise ImportError(f"no {_FLAPACK} extension in {path}", name=_FLAPACK, path=path)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_FLAPACK] = module
    return sys.modules[_FLAPACK]


def __getattr__(name: str):
    """Bind the LAPACK routines on first access; a name already set, say by
    a test's monkeypatch, is kept."""
    if name not in _LAPACK:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    flapack = _flapack()
    for routine in _LAPACK:
        globals().setdefault(routine, getattr(flapack, routine))
    return globals()[name]


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
    """Symmetric part of a square matrix, or of each in a stack, as a new
    float array (an integer matrix is summed as floats)."""
    s = np.add(m, m.swapaxes(-1, -2), dtype=float)
    s *= 0.5
    return s


def _jittered_factor(m: np.ndarray):
    """Lower Cholesky factor of ``m`` with the jitter on its diagonal: the
    retry for a matrix whose plain factorization failed."""
    jitter = JITTER_SCALE * float(np.trace(m)) / m.shape[0]
    if not np.isfinite(jitter) or jitter <= 0.0:
        raise SingularMatrixError("matrix is not positive definite and has no usable jitter scale")
    factor, info = _module.dpotrf(m + jitter * np.eye(m.shape[0]), lower=1)
    if info != 0:
        raise SingularMatrixError("matrix is not positive definite (jitter retry failed)")
    return factor


def spd_factor(m: np.ndarray):
    """Lower Cholesky factor of ``m``, with the one-shot jitter retry."""
    factor, info = _module.dpotrf(m, lower=1)
    return factor if info == 0 else _jittered_factor(m)


def spd_inv(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric inverse of an SPD matrix, or of each in a ``(..., d, d)``
    stack. Counts as one inversion per matrix.

    ``m`` must be symmetric (one triangle is read). Each matrix is inverted
    through its Cholesky factor ``L`` as ``L^-T L^-1`` and gets the bits it
    gets alone; a failure carries the stack index of its matrix as ``index``.
    """
    global _inversions
    potrf, trtri = _module.dpotrf, _module.dtrtri
    d = m.shape[-1]
    stack = m.reshape(-1, d, d)
    out = stack.astype(float, order="C")
    # column-major views, which LAPACK factors and inverts in place (f2py
    # copies nothing); positional flags keep the loop tight
    cols = out.swapaxes(-1, -2)
    for i in range(len(out)):
        if potrf(cols[i], 1, 1, 1)[1]:  # lower, clean, overwrite_a
            try:
                cols[i] = _jittered_factor(stack[i].T)
            except SingularMatrixError as exc:
                exc.index = np.unravel_index(i, m.shape[:-2]) if m.ndim > 2 else None
                raise
        trtri(cols[i], 1, 0, 1)  # lower, unitdiag, overwrite_c: cannot fail after potrf
    _inversions += len(out)
    # read in C order, out holds each L^-T; cols holds each L^-1. cols must
    # stay a view of out: numpy then runs syrk on A @ A^T and mirrors the
    # triangle, which makes the product exactly symmetric without sym
    return (out @ cols).reshape(m.shape)
