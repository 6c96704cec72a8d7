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
dtype, for LAPACK to overwrite; the workspace and the column-major ``U`` and
``Vt`` live in anonymous memory maps, each returned to the system as soon as
it has been read. ``np.linalg.svd`` would add a second copy of the input and
keep its workspace and column-major factors in one block until it returns.
Where numpy's LAPACK has no such symbol (another build of numpy), the SVD is
``np.linalg.svd`` itself.
"""

import ctypes
import math
import mmap
import operator
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
    try:  # operator.index rejects 2.7 instead of truncating it to 2
        idx = np.asarray(sorted({operator.index(i) for i in indices}), dtype=int)
    except TypeError as exc:
        raise ValidationError(f"component indices must be integers: {exc}") from exc
    if idx.size and (idx[0] < 1 or idx[-1] > k):
        bad = idx[0] if idx[0] < 1 else idx[-1]
        raise ValidationError(f"component index {bad} outside 1..{k}")
    return idx - 1


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


def _address(buf: mmap.mmap) -> int:
    # the ctypes view is dropped at once, so it does not keep the map from closing
    return ctypes.addressof(ctypes.c_char.from_buffer(buf))


def _check_info(info: int) -> None:
    if info > 0:
        raise NumericError(f"SVD did not converge: LAPACK dgesdd info {info}")
    if info < 0:
        raise NumericError(f"LAPACK dgesdd rejected its argument {-info}")


def _gesdd(w: np.ndarray, compute_uv: bool):
    """``np.linalg.svd(w, full_matrices=False, compute_uv=compute_uv)`` of a checked ``w``.

    LAPACK gets the job, leading dimensions and optimal workspace size that
    numpy gives it, so the results are bit-identical to numpy's.
    """
    m, n = w.shape
    k = min(m, n)
    jobz, ldu, ldvt = (b"S", m, k) if compute_uv else (b"N", 1, 1)
    a = np.array(w, dtype=np.float64, order="F")  # the one copy, which LAPACK overwrites
    sigma = np.empty(k)
    iwork = np.empty(8 * k, dtype=np.int64)
    query = np.empty(1)
    _check_info(_dgesdd(_COL_MAJOR, jobz, m, n, a.ctypes.data, m, sigma.ctypes.data,
                        None, ldu, None, ldvt, query.ctypes.data, -1, iwork.ctypes.data))
    lwork = max(int(query[0]), 1)
    shapes = [(m, k), (k, n)] if compute_uv else []
    maps = [mmap.mmap(-1, 8 * math.prod(shape)) for shape in [(lwork,), *shapes]]
    try:
        work, *uv = map(_address, maps)
        u, vt = uv or (None, None)
        info = _dgesdd(_COL_MAJOR, jobz, m, n, a.ctypes.data, m, sigma.ctypes.data,
                       u, ldu, vt, ldvt, work, lwork, iwork.ctypes.data)
        del a
        maps[0].close()
        _check_info(info)
        factors = []
        for shape, buf in zip(shapes, maps[1:]):
            factors.append(np.ndarray(shape, np.float64, buf, order="F").copy(order="C"))
            buf.close()
    finally:
        for buf in maps:
            buf.close()
    return (factors[0], sigma, factors[1]) if compute_uv else sigma


def _svd(matrix: np.ndarray, compute_uv: bool):
    w = np.asarray(matrix)
    if w.dtype.kind != "f":  # such as integers or nested lists; floats are widened by the SVD
        w = w.astype(np.float64)
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
        raise ValidationError(f"expected a non-empty 2-D matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("matrix contains non-finite entries")
    if _dgesdd is not None:
        return _gesdd(w, compute_uv)
    try:
        return np.linalg.svd(np.asarray(w, dtype=np.float64), full_matrices=False,
                             compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc


def decompose(weight: np.ndarray) -> SvdFactors:
    """Thin SVD of ``weight`` with the sign convention applied."""
    u, sigma, vt = _svd(weight, compute_uv=True)
    # Pin signs: largest-|entry| of each left vector positive, right vector
    # flipped jointly so u_i sigma_i v_i^T is unchanged. Unless a column's
    # largest entry and the negation of its smallest are exactly equal, all
    # its entries of largest magnitude share one sign, so the two column
    # extremes decide without an |U| temporary. A tie needs the position of
    # the first largest-magnitude entry, so only tied columns are searched.
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
    r = np.asarray(residual, dtype=np.float64)
    if r.shape != (factors.m, factors.n):
        raise ValidationError(
            f"residual shape {r.shape} does not match factors ({factors.m}, {factors.n})"
        )
    if not np.all(np.isfinite(r)):
        raise ValidationError("residual contains non-finite entries")
    # d_i is the i-th diagonal entry of U^T residual V: one GEMM for
    # U^T residual, then a row-wise dot product with Vt. The GEMM's left
    # operand has K rows, not m: OpenBLAS keeps the pack buffer of a left
    # operand's rows mapped, about m x 3 KiB for a tall residual @ V, and a
    # worker's next layer would carry those pages into its SVD peak.
    return np.abs(np.einsum("in,in->i", factors.u.T @ r, factors.vt))
