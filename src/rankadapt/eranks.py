"""Effective-rank functionals of a singular spectrum.

Two real-valued relaxations of matrix rank, both functions of the singular
values alone:

* entropy rank: ``exp(H)`` where ``H = -sum_i p_i log p_i`` is the Shannon
  entropy of ``p_i = sigma_i / sum_j sigma_j`` (natural log;
  ``0 log 0 := 0``). Large when the spectrum is evenly spread.
* stable rank: ``sum_i sigma_i / sigma_1``. Small when energy
  concentrates in the leading directions.

Both are invariant to rescaling the spectrum and lie in ``[1, K]`` for any
nonzero spectrum. The stable rank never exceeds the entropy rank; the test
suite sweeps this ordering as a property.
"""

import numpy as np

from .errors import DegenerateSpectrumError, ValidationError
from .spectral import as_finite_array


def check_spectrum(sigma) -> np.ndarray:
    """``sigma`` as a float64 vector; raises unless it is a spectrum with effective ranks."""
    s = as_finite_array(sigma, "spectrum", np.float64).ravel()
    if s.size == 0:
        raise ValidationError("empty spectrum")
    if np.any(s < 0):
        raise ValidationError("singular values must be non-negative")
    if np.any(np.diff(s) > 0):
        raise ValidationError("singular values must be sorted descending")
    if s[0] == 0.0:
        raise DegenerateSpectrumError("all-zero spectrum has no effective rank")
    return s


def entropy_rank(sigma) -> float:
    """exp of the entropy of the normalized spectrum."""
    s = check_spectrum(sigma)
    t = s / s[0]  # relative to the largest first, so the sum cannot overflow
    p = t / np.sum(t)
    nz = p[p > 0.0]
    return float(np.exp(-np.sum(nz * np.log(nz))))


def stable_rank(sigma) -> float:
    """Sum of singular values relative to the largest."""
    s = check_spectrum(sigma)
    return float(np.sum(s / s[0]))

