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

The SVD is LAPACK's ``dgesdd``, the routine behind ``np.linalg.svd``,
called through ``ctypes`` from the OpenBLAS that numpy's wheels bundle, so
the factors are bit-identical to ``np.linalg.svd``'s at less memory.
LAPACK overwrites the column-major float64 copy of the input (see below).
The workspaces and the column-major factors are arrays over anonymous
memory maps, each unmapped when its array's last reference goes. The copy
and each workspace are dropped as soon as their last LAPACK or BLAS call
returns, and ``U``'s map once its row-major copy exists, before ``Vt`` is
copied. ``np.linalg.svd`` would add a second copy of the input and keep
its workspace and column-major factors in one block until it returns.
Where numpy's LAPACK lacks one of the four symbols used here (another
build of numpy), the SVD is ``np.linalg.svd`` itself, of the same copy.

For a tall matrix (``m >= floor(11 n / 6)``, dgesdd's own threshold),
dgesdd computes the ``Q R`` of the copy, the SVD of the n x n ``R``, and
``U = Q U_R`` with one GEMM. With vectors, this module makes those LAPACK
and BLAS calls itself, one at a time, so the SVD's workspace (about 3 n^2
floats) and ``R`` are freed before ``U`` is formed, where the one-shot
call holds them beside it. It does so only where dgesdd would scale
neither the matrix nor ``R``. Wide and square matrices and singular values
alone take the one-shot call; a wide layer, such as a ViT ``mlp.fc2``,
could take dgesdd's LQ steps the same way, but no benchmark workload has
one.

Every matrix, for the SVD or the residual projection, is read once, into
one float64 copy, and checked on the copy: real before it is copied, finite
and of the right shape after. A matrix over a read-only file map, such as a
bundle entry from :mod:`rankadapt.tensorio`, is copied about 1 MiB of rows
at a time, and each block's whole pages are dropped from this process's
memory with ``madvise(MADV_DONTNEED)`` once they are copied, so the map's
pages and the copy are never resident together. The map stays valid; a
later read faults the pages back in from the page cache. A writable or
copy-on-write map stays as it is.
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


def _find_lapack():
    """LAPACKE ``dgesdd_work``, ``dgeqrf_work`` and ``dorgqr_work`` and CBLAS ``dgemm``.

    They are numpy's bundled OpenBLAS's, with 64-bit integers. Either all four
    are found or all four are None, so the tall route of :func:`_svd`
    exists exactly when ``dgesdd_work`` does.
    """
    i64, ptr, dbl, enum = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_int
    signatures = {
        "scipy_LAPACKE_dgesdd_work64_": (i64, (enum, ctypes.c_char, i64, i64, ptr, i64, ptr,
                                               ptr, i64, ptr, i64, ptr, i64, ptr)),
        "scipy_LAPACKE_dgeqrf_work64_": (i64, (enum, i64, i64, ptr, i64, ptr, ptr, i64)),
        "scipy_LAPACKE_dorgqr_work64_": (i64, (enum, i64, i64, i64, ptr, i64, ptr, ptr, i64)),
        "scipy_cblas_dgemm64_": (None, (enum, enum, enum, i64, i64, i64, dbl, ptr, i64,
                                        ptr, i64, dbl, ptr, i64)),
    }
    try:
        from numpy.linalg import _umath_linalg

        # a handle's symbol lookup also searches the libraries the extension links
        lib = ctypes.CDLL(_umath_linalg.__file__)
        fns = [getattr(lib, name) for name in signatures]
    except (ImportError, OSError, AttributeError):
        return None, None, None, None
    for fn, (restype, argtypes) in zip(fns, signatures.values()):
        fn.restype, fn.argtypes = restype, argtypes
    return tuple(fns)


_dgesdd, _dgeqrf, _dorgqr, _dgemm = _find_lapack()
_COL_MAJOR, _NO_TRANS = 102, 111  # LAPACKE's LAPACK_COL_MAJOR, CBLAS's CblasNoTrans
# dgesdd scales a matrix whose largest magnitude lies outside [_SMLNUM, 1 / _SMLNUM]
_SMLNUM = math.sqrt(sys.float_info.min) / sys.float_info.epsilon
_BLOCK_BYTES = 1 << 20  # of a mapped input, copied between two releases of its pages


def _check_info(info: int, routine: str) -> None:
    if info > 0:
        raise NumericError(f"SVD did not converge: LAPACK {routine} info {info}")
    if info < 0:
        raise NumericError(f"LAPACK {routine} rejected its argument {-info}")


def _read_only_map(array):
    """The file map under ``array`` if its buffer is read-only and can be released, else None.

    The chain of ``ndarray.base`` and ``memoryview.obj`` links is followed, so
    an array over a map through ``np.frombuffer`` finds it too. Dropping the
    private pages of a copy-on-write map would discard the caller's edits, so
    only a read-only map qualifies; an array in memory or over a writable map
    has none.
    """
    base = array
    while isinstance(base, (np.ndarray, memoryview)):
        base = base.base if isinstance(base, np.ndarray) else base.obj
    if not isinstance(base, mmap.mmap) or not hasattr(mmap, "MADV_DONTNEED"):
        return None
    with memoryview(base) as view:
        return base if view.readonly else None


def _widened(x: np.ndarray, order: str) -> np.ndarray:
    """A float64 copy of ``x`` in ``order``, after which ``x``'s read-only map is released.

    A C-contiguous matrix over a read-only map is copied about
    ``_BLOCK_BYTES`` of rows at a time, and the whole pages of each block are
    released once it is copied, so the map's pages and the copy are never
    resident together. Widening is exact, so the copy is the same either way.
    The map stays valid, and a later read faults its pages back in from the
    page cache.
    """
    mm = _read_only_map(x)
    if mm is None or x.ndim != 2 or not x.flags.c_contiguous or x.size == 0:
        a = np.array(x, dtype=np.float64, order=order)
    else:
        a = np.empty_like(x, dtype=np.float64, order=order, subok=False)
        row = x.itemsize * x.shape[1]
        rows = max(1, _BLOCK_BYTES // row)
        start = x.ctypes.data - np.frombuffer(mm, np.uint8).ctypes.data  # x's offset in the map
        done = start - start % mmap.PAGESIZE  # released up to here
        for i in range(0, x.shape[0], rows):
            a[i:i + rows] = x[i:i + rows]
            copied = start + min(i + rows, x.shape[0]) * row
            end = copied - copied % mmap.PAGESIZE
            if end > done:
                mm.madvise(mmap.MADV_DONTNEED, done, end - done)
                done = end
    if mm is not None:
        mm.madvise(mmap.MADV_DONTNEED)  # all of the map, with the partial pages at either end of x
    return a


def _finite_copy(x, what: str, order: str) -> np.ndarray:
    """The :func:`_widened` copy of real ``x``; raises unless every entry of the copy is finite.

    ``x`` is read once, into the copy, and the check scans the copy, never a map.
    """
    return as_finite_array(_widened(as_real_array(x, what), order), what)


def _mapped(*shape: int) -> np.ndarray:
    """A column-major float64 array over its own anonymous map, unmapped with the array."""
    return np.ndarray(shape, np.float64, mmap.mmap(-1, 8 * math.prod(shape)), order="F")


def _lapack(routine, name: str, *args, iwork=None) -> None:
    """``routine(*args, work, lwork)``, then ``iwork`` if given, with its optimal workspace.

    The workspace size is LAPACK's own answer to a query with ``lwork = -1``.
    """
    tail = () if iwork is None else (iwork.ctypes.data,)
    query = np.empty(1)
    _check_info(routine(*args, query.ctypes.data, -1, *tail), name)
    work = _mapped(max(int(query[0]), 1))
    info = routine(*args, work.ctypes.data, work.size, *tail)
    del work  # unmapped now, not kept alive by the traceback of an error
    _check_info(info, name)


def _dgesdd_of(a: np.ndarray, u=None, vt=None) -> np.ndarray:
    """Singular values of column-major ``a``, which ``dgesdd`` overwrites.

    With ``u`` and ``vt``, of shapes (m, K) and (K, n), the job is ``'S'`` and
    they receive the thin factors; without them it is ``'N'``. The job and
    leading dimensions are numpy's, so the results are bit-identical to
    ``np.linalg.svd``'s.
    """
    m, n = a.shape
    k = min(m, n)
    sigma = np.empty(k)
    if u is None:
        jobz, factors = b"N", (None, 1, None, 1)
    else:
        jobz, factors = b"S", (u.ctypes.data, m, vt.ctypes.data, k)
    _lapack(_dgesdd, "dgesdd", _COL_MAJOR, jobz, m, n, a.ctypes.data, m, sigma.ctypes.data,
            *factors, iwork=np.empty(8 * k, dtype=np.int64))
    return sigma


def _takes_qr_route(a: np.ndarray) -> bool:
    """Whether ``dgesdd`` with vectors factors ``a`` through its QR, unscaled.

    A tall ``a`` (``m >= MNTHR``, dgesdd's own threshold) is reduced to the
    ``R`` of its QR. Then dgesdd scales neither ``a`` nor ``R`` when ``a`` is
    zero or its largest magnitude lies in ``[_SMLNUM sqrt(n), _SMLNUM^-1 /
    sqrt(m)]``. Each column of ``R`` has the norm of ``a``'s column, and at
    most n entries, so ``R``'s largest magnitude lies between ``max|a| /
    sqrt(n)`` and ``sqrt(m) max|a|``. A factor of 2 covers rounding.
    """
    m, n = a.shape
    if m < int(n * 11 / 6):
        return False
    top = max(a.max(), -a.min())  # no temporary |a|
    return top == 0 or 2 * _SMLNUM * math.sqrt(n) <= top <= 1 / (2 * _SMLNUM * math.sqrt(m))


def _qr_gesdd(a: np.ndarray):
    """Column-major ``U``, sigma and ``Vt`` of tall ``a``: ``Q R``, the SVD of ``R``, ``Q U_R``.

    These are the calls that ``dgesdd`` makes for an ``a`` that
    :func:`_takes_qr_route`, with the same workspace queries, so the factors
    are its bits. Made one at a time, they free the SVD's workspace and
    ``R`` before ``U`` is formed. ``a`` is overwritten with ``Q``.
    """
    m, n = a.shape
    tau = np.empty(n)
    _lapack(_dgeqrf, "dgeqrf", _COL_MAJOR, m, n, a.ctypes.data, m, tau.ctypes.data)
    r = _mapped(n, n)
    r[...] = np.triu(a[:n])
    _lapack(_dorgqr, "dorgqr", _COL_MAJOR, m, n, n, a.ctypes.data, m, tau.ctypes.data)
    u_r, vt = _mapped(n, n), _mapped(n, n)
    sigma = _dgesdd_of(r, u_r, vt)
    del r
    u = _mapped(m, n)
    _dgemm(_COL_MAJOR, _NO_TRANS, _NO_TRANS, m, n, n, 1.0, a.ctypes.data, m,
           u_r.ctypes.data, n, 0.0, u.ctypes.data, m)
    return u, sigma, vt


def _svd(matrix, compute_uv: bool):
    """``np.linalg.svd(matrix, full_matrices=False, compute_uv=compute_uv)``, of a checked copy.

    The copy is column-major, for LAPACK to overwrite, and is a local of this
    function alone, so that it is freed before the factors are copied out.
    """
    a = _finite_copy(matrix, "matrix", "F")
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if _dgesdd is None:
        try:
            return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"SVD did not converge: {exc}") from exc
    if not compute_uv:
        return _dgesdd_of(a)
    if _takes_qr_route(a):
        u, sigma, vt = _qr_gesdd(a)
    else:
        m, n = a.shape
        u, vt = _mapped(m, min(m, n)), _mapped(min(m, n), n)
        sigma = _dgesdd_of(a, u, vt)
    del a  # the overwritten copy, freed before the factors are copied out
    u = u.copy(order="C")  # drops the column-major U before Vt is copied
    return u, sigma, vt.copy(order="C")


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
    r = _finite_copy(residual, "residual", "K")
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
    return np.abs(np.einsum("in,in->i", ur, factors.vt))
