"""The STM option and the input rules the CLI process checks before any worker starts.

This module imports no numpy, so the CLI process of ``spectra`` and
``stm-init``, which only validates and hands out layers, never loads it;
:mod:`rankadapt.stm` re-exports :class:`StmConfig` and :func:`max_rank`.
"""

import numbers
import sys
from dataclasses import dataclass

from .errors import ValidationError


def is_real(x) -> bool:
    """Whether ``x`` is a finite real number, never a bool, a string or an array.

    An int is compared exactly, so one beyond the range of floats fails, not overflows.
    """
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class StmConfig:
    """The one STM knob: ``alpha`` scales the entropy rank into a rank budget."""

    alpha: float

    def __post_init__(self):
        if not (is_real(self.alpha) and self.alpha > 0):
            raise ValidationError(f"alpha must be a positive finite number, got {self.alpha!r}")


def max_rank(k: int) -> int:
    """The rank cap ``floor(k / 2)`` of a layer with ``k`` components; raises if it is 0."""
    if k < 2:
        raise ValidationError(f"rank cap floor(K/2) = 0 for K={k} leaves no rank budget")
    return k // 2
