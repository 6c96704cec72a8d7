"""Effective-rank functionals of a singular spectrum.

Two real-valued relaxations of matrix rank, both functions of the singular
values alone:

* entropy rank: ``exp(H)`` where ``H = -sum_i p_i log p_i`` is the Shannon
  entropy of ``p_i = sigma_i**gamma / sum_j sigma_j**gamma`` (natural log;
  ``0 log 0 := 0``). Large when the spectrum is evenly spread.
* stable rank: ``sum_i (sigma_i / sigma_1)**gamma``. Small when energy
  concentrates in the leading directions.

Both are invariant to rescaling the spectrum and lie in ``[1, K]`` for any
nonzero spectrum. With ``gamma = 1`` the stable rank never exceeds the
entropy rank; the test suite sweeps this ordering as a property.
"""

import numpy as np

from .errors import DegenerateSpectrumError, ValidationError


def check_gamma(gamma: float) -> None:
    """Raise ``ValidationError`` unless the spectrum exponent is positive and finite."""
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValidationError(f"gamma must be positive and finite, got {gamma}")


def _checked_spectrum(sigma, gamma: float) -> np.ndarray:
    check_gamma(gamma)
    s = np.asarray(sigma, dtype=np.float64).ravel()
    if s.size == 0:
        raise ValidationError("empty spectrum")
    if np.any(s < 0) or not np.all(np.isfinite(s)):
        raise ValidationError("singular values must be finite and non-negative")
    if np.any(np.diff(s) > 0):
        raise ValidationError("singular values must be sorted descending")
    if s[0] == 0.0:
        raise DegenerateSpectrumError("all-zero spectrum has no effective rank")
    return s


def entropy_rank(sigma, gamma: float = 1.0) -> float:
    """exp of the entropy of the gamma-normalized spectrum."""
    s = _checked_spectrum(sigma, gamma)
    t = (s / s[0]) ** gamma  # normalize before powering to avoid overflow
    p = t / np.sum(t)
    nz = p[p > 0.0]
    return float(np.exp(-np.sum(nz * np.log(nz))))


def stable_rank(sigma, gamma: float = 1.0) -> float:
    """Sum of singular values relative to the largest, each raised to gamma."""
    s = _checked_spectrum(sigma, gamma)
    return float(np.sum((s / s[0]) ** gamma))

