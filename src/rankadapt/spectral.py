"""Thin SVD with a deterministic sign convention, plus residual projection.

A matrix ``W`` of shape (m, n) factors as ``W = U @ diag(sigma) @ Vt`` with
``K = min(m, n)`` components, singular values sorted descending. Singular
vectors are only defined up to a joint sign flip of each (u_i, v_i) pair, so
decompositions pin the sign: the largest-magnitude entry of each column of
``U`` is made positive (first occurrence wins on ties) and the matching row
of ``Vt`` flips with it. The sign is read from each column's extremes: the
column flips when its most negative entry outweighs its largest positive
one. Only where the two have exactly the same magnitude does the position
of the first largest-magnitude entry decide, so those columns alone are
searched. Component indices are 1-based throughout the public API,
``i = 1..K``, following the usual math convention.

Tiny singular values are never truncated; rank-like behavior is the job of
the effective-rank functionals downstream.

The SVD is LAPACK's ``dgesdd``, the routine behind ``np.linalg.svd``, called
through ``ctypes`` from the OpenBLAS that numpy's wheels bundle, so the
factors are bit-identical to ``np.linalg.svd``'s at less memory. That call
makes one column-major float64 copy of the input, straight from its stored
dtype, for LAPACK to overwrite. The workspace and the column-major ``U`` and
``Vt`` are arrays over anonymous memory maps, each unmapped when its array's
last reference goes. The copy and the workspace are dropped as soon as
LAPACK returns, and ``U``'s map once its row-major copy exists, before
``Vt`` is copied. ``np.linalg.svd`` would add a second copy of the input and
keep its workspace and column-major factors in one block until it returns.
Where numpy's LAPACK has no such symbol (another build of numpy), the SVD is
``np.linalg.svd`` itself, of the same copy.

A matrix or residual that is a read-only file map, such as a bundle entry
from :mod:`rankadapt.tensorio`, has its pages dropped from this process's
memory with ``madvise(MADV_DONTNEED)`` once it has been read: by the SVD
after its float64 copy, by the residual projection after its one GEMM. So a
worker's peak is LAPACK's working set alone, not that plus the mapped input.
The map stays valid; a later read faults the pages back in from the page
cache. A writable or copy-on-write map stays as it is.
"""

import ctypes
import math
import mmap
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError


@dataclass(frozen=True)
class SvdFactors:
    """Sign-normalized thin SVD of a real matrix."""

    u: np.ndarray      # (m, K), orthonormal columns
    sigma: np.ndarray  # (K,), descending, non-negative
    vt: np.ndarray     # (K, n), orthonormal rows

    @property
    def m(self) -> int:
        return self.u.shape[0]

    @property
    def n(self) -> int:
        return self.vt.shape[1]

    @property
    def k(self) -> int:
        return self.sigma.shape[0]


def as_component_indices(indices, k: int) -> np.ndarray:
    """Validate 1-based integer component indices and return them 0-based, sorted."""
    try:  # operator.index rejects 2.7 instead of truncating it to 2, but takes True as 1
        indices = list(indices)
        if any(isinstance(i, bool) for i in indices):
            raise TypeError(f"a bool is no index, got {indices}")
        idx = np.asarray(sorted({operator.index(i) for i in indices}), dtype=int)
    except TypeError as exc:
        raise ValidationError(f"component indices must be integers: {exc}") from exc
    if idx.size and (idx[0] < 1 or idx[-1] > k):
        bad = idx[0] if idx[0] < 1 else idx[-1]
        raise ValidationError(f"component index {bad} outside 1..{k}")
    return idx - 1


def is_real(x) -> bool:
    """Whether ``x`` is a finite real number, never a bool, a string or an array.

    An int is compared exactly, so one beyond the range of floats fails, not overflows.
    """
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def as_real_array(x, what: str, dtype=None) -> np.ndarray:
    """``x`` as an array, of ``dtype`` if given; raises unless it is bool, integer or float."""
    a = np.asarray(x)
    if a.dtype.kind not in "biuf":
        raise ValidationError(f"{what} must be real, got dtype {a.dtype}")
    return np.asarray(a, dtype=dtype)


def as_finite_array(x, what: str, dtype=None) -> np.ndarray:
    """:func:`as_real_array` of ``x``; raises unless every entry is finite as well."""
    a = as_real_array(x, what, dtype)
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} contains non-finite entries")
    return a


def _find_dgesdd():
    """LAPACKE ``dgesdd_work`` of numpy's bundled OpenBLAS, with 64-bit integers, or None."""
    try:
        from numpy.linalg import _umath_linalg

        # a handle's symbol lookup also searches the libraries the extension links
        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_LAPACKE_dgesdd_work64_
    except (ImportError, OSError, AttributeError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = (ctypes.c_int, ctypes.c_char, i64, i64, ptr, i64, ptr,
                   ptr, i64, ptr, i64, ptr, i64, ptr)
    fn.restype = i64
    return fn


_dgesdd = _find_dgesdd()
_COL_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR


def _check_info(info: int) -> None:
    if info > 0:
        raise NumericError(f"SVD did not converge: LAPACK dgesdd info {info}")
    if info < 0:
        raise NumericError(f"LAPACK dgesdd rejected its argument {-info}")


def _release_pages(array) -> None:
    """Drop this process's resident pages of the read-only file map under ``array``.

    Only a map whose buffer is read-only is released: dropping the private
    pages of a copy-on-write map would discard the caller's edits. The map
    stays valid, and a later read faults its pages back in from the page
    cache. Anything else, such as an array in memory, is left alone.
    """
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    if not isinstance(base, mmap.mmap) or not hasattr(mmap, "MADV_DONTNEED"):
        return
    with memoryview(base) as view:
        readonly = view.readonly
    if readonly:
        base.madvise(mmap.MADV_DONTNEED)


def _widened(w: np.ndarray) -> np.ndarray:
    """The one column-major float64 copy of ``w``, which the SVD overwrites.

    Once it is made, the pages of a read-only map under ``w`` are released,
    so they are not resident during the SVD.
    """
    a = np.array(w, dtype=np.float64, order="F")
    _release_pages(w)
    return a


def _mapped(*shape: int) -> np.ndarray:
    """A column-major float64 array over its own anonymous map, unmapped with the array."""
    return np.ndarray(shape, np.float64, mmap.mmap(-1, 8 * math.prod(shape)), order="F")


def _gesdd(w: np.ndarray, compute_uv: bool):
    """``np.linalg.svd(w, full_matrices=False, compute_uv=compute_uv)`` of a checked ``w``.

    LAPACK gets the job, leading dimensions and optimal workspace size that
    numpy gives it, so the results are bit-identical to numpy's.
    """
    m, n = w.shape
    k = min(m, n)
    jobz, ldu, ldvt = (b"S", m, k) if compute_uv else (b"N", 1, 1)
    a = _widened(w)
    sigma = np.empty(k)
    iwork = np.empty(8 * k, dtype=np.int64)
    query = np.empty(1)
    _check_info(_dgesdd(_COL_MAJOR, jobz, m, n, a.ctypes.data, m, sigma.ctypes.data,
                        None, ldu, None, ldvt, query.ctypes.data, -1, iwork.ctypes.data))
    work = _mapped(max(int(query[0]), 1))
    u, vt = (_mapped(m, k), _mapped(k, n)) if compute_uv else (None, None)
    info = _dgesdd(_COL_MAJOR, jobz, m, n, a.ctypes.data, m, sigma.ctypes.data,
                   None if u is None else u.ctypes.data, ldu,
                   None if vt is None else vt.ctypes.data, ldvt,
                   work.ctypes.data, work.size, iwork.ctypes.data)
    # the overwritten copy and the workspace, freed before the factors are copied out
    del a, work
    _check_info(info)
    if not compute_uv:
        return sigma
    u = u.copy(order="C")  # drops the column-major U before Vt is copied
    return u, sigma, vt.copy(order="C")


def _svd(matrix: np.ndarray, compute_uv: bool):
    w = as_finite_array(matrix, "matrix")  # widened to float64 in the SVD's one copy
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
        raise ValidationError(f"expected a non-empty 2-D matrix, got shape {w.shape}")
    if _dgesdd is not None:
        return _gesdd(w, compute_uv)
    try:
        return np.linalg.svd(_widened(w), full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc


def decompose(weight: np.ndarray) -> SvdFactors:
    """Thin SVD of ``weight`` with the sign convention applied."""
    u, sigma, vt = _svd(weight, compute_uv=True)
    top, neg = u.max(axis=0), -u.min(axis=0)
    flip = neg > top
    tied = np.flatnonzero(neg == top)
    if tied.size:
        cols = u[:, tied]
        flip[tied] = cols[np.argmax(np.abs(cols), axis=0), np.arange(tied.size)] < 0
    # multiplying by +-1.0 is exact, and in place it needs no full-size copy
    sign = np.where(flip, -1.0, 1.0)
    u *= sign
    vt *= sign[:, None]
    return SvdFactors(u=u, sigma=sigma, vt=vt)


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Descending singular values of ``matrix``, without computing vectors.

    Validates and maps convergence failures exactly like :func:`decompose`.
    """
    return _svd(matrix, compute_uv=False)


def reconstruct(factors: SvdFactors, indices=None) -> np.ndarray:
    """Sum of components ``u_i sigma_i v_i^T``; all of them when ``indices`` is None.

    The result is always a new array, which the caller may overwrite.
    """
    if indices is None:
        return (factors.u * factors.sigma) @ factors.vt
    idx = as_component_indices(indices, factors.k)
    return (factors.u[:, idx] * factors.sigma[idx]) @ factors.vt[idx, :]


def project_residual(factors: SvdFactors, residual: np.ndarray) -> np.ndarray:
    """Magnitudes ``d_i = |u_i^T residual v_i|`` of a residual on each direction.

    The absolute value makes the result invariant to the per-component sign
    freedom of the decomposition.
    """
    r = as_finite_array(residual, "residual", np.float64)
    if r.shape != (factors.m, factors.n):
        raise ValidationError(
            f"residual shape {r.shape} does not match factors ({factors.m}, {factors.n})"
        )
    # d_i is the i-th diagonal entry of U^T residual V: one GEMM for
    # U^T residual, then a row-wise dot product with Vt. The GEMM's left
    # operand has K rows, not m: OpenBLAS keeps the pack buffer of a left
    # operand's rows mapped, about m x 3 KiB for a tall residual @ V, and a
    # worker's next layer would carry those pages into its SVD peak.
    ur = factors.u.T @ r
    _release_pages(residual)  # read for the last time, whether copied or viewed
    return np.abs(np.einsum("in,in->i", ur, factors.vt))
