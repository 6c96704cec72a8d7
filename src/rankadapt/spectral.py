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
"""

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
    """Validate 1-based component indices and return them 0-based, sorted."""
    idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=int)
    if idx.size and (idx[0] < 1 or idx[-1] > k):
        bad = idx[0] if idx[0] < 1 else idx[-1]
        raise ValidationError(f"component index {bad} outside 1..{k}")
    return idx - 1


def _svd(matrix: np.ndarray, compute_uv: bool):
    w = np.asarray(matrix, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
        raise ValidationError(f"expected a non-empty 2-D matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("matrix contains non-finite entries")
    try:
        return np.linalg.svd(w, full_matrices=False, compute_uv=compute_uv)
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
