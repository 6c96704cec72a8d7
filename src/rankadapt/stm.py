"""Selecting-Tuning-Maintaining core for low-rank adaptation.

Given a pretrained weight ``W`` and a full-fine-tuned residual ``dW``, this
module picks a per-layer rank budget, ``alpha`` (:class:`StmConfig`, the one
knob) times the entropy rank clamped to ``[1, floor(K/2)]``, picks the
singular directions of ``W`` on which ``dW`` projects most strongly, splits
those directions out of the frozen base into an exactly-initialized adapter
``W = W0 + B @ A``, and scores a penalty that keeps training away from the
leading directions, up to the ceiling of the stable rank, that were not selected.
Every step consumes the factors of ``W`` from one decomposition that the
caller makes: :func:`select_rank`, :func:`select_directions`, then the split,
:func:`split_factors` and :func:`split_weight`. The split is two steps so
that a caller can drop the factors before the one m x n array, ``W0``, exists,
and the adapted layer keeps only the protected components the penalty reads.

Component indices are 1-based, consistent with :mod:`rankadapt.spectral`.
"""

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .config import StmConfig, is_real, max_rank
from .eranks import entropy_rank, stable_rank
from .errors import ValidationError
from .spectral import (SvdFactors, as_component_indices, as_real_array, project_residual,
                       reconstruct)

# Real-valued ranks are rounded to this many decimals before they become
# integers, so float noise such as ceil(2 + 1e-16) does not add a direction.
_SNAP_DIGITS = 12


@dataclass(frozen=True)
class StmPlan:
    """Per-layer selection result recorded for audit and serialization.

    Making a plan raises ``ValidationError`` unless the field comments hold.
    """

    r: int                      # len(selected)
    selected: tuple[int, ...]   # 1-based, strictly ascending
    protected: tuple[int, ...]  # 1-based, strictly ascending, disjoint from selected
    protect_cutoff: int         # >= 0 and >= every protected index
    entropy_rank: float         # finite
    stable_rank: float          # finite

    def __post_init__(self):
        sets = self.selected, self.protected
        ints = self.r, self.protect_cutoff, *self.selected, *self.protected
        if not (all(type(i) is int for i in ints)  # no bool
                and all(isinstance(x, float) and is_real(x)
                        for x in (self.entropy_rank, self.stable_rank))
                and self.r == len(self.selected) and self.protect_cutoff >= 0
                and all(i >= 1 for s in sets for i in s)
                and all(a < b for s in sets for a, b in zip(s, s[1:]))
                and not set(self.selected) & set(self.protected)
                and all(i <= self.protect_cutoff for i in self.protected)):
            raise ValidationError(f"inconsistent plan: {self!r}")

    def to_dict(self) -> dict:
        """The plan as JSON-ready fields, in declaration order, index sets as lists."""
        return {**asdict(self),
                "selected": list(self.selected), "protected": list(self.protected)}

    @classmethod
    def from_dict(cls, data: dict) -> "StmPlan":
        """The plan recorded by :meth:`to_dict`.

        Keys that are not plan fields, such as the ``name`` and ``config`` of
        a ``*.plan.json`` file, are ignored. The index sets must be lists and
        the ranks numbers within the range of finite floats; the plan itself
        checks the rest.
        """
        try:
            r, cutoff = data["r"], data["protect_cutoff"]
            sets = selected, protected = data["selected"], data["protected"]
            ranks = data["entropy_rank"], data["stable_rank"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed plan record: {exc!r}") from exc
        if not (all(isinstance(s, (list, tuple)) for s in sets)  # a str is no index set
                and all(is_real(x) for x in ranks)):
            raise ValidationError(f"malformed plan record: {data!r}")
        return cls(r, tuple(selected), tuple(protected), cutoff, float(ranks[0]), float(ranks[1]))


@dataclass
class AdaptedLayer:
    """A frozen base plus a tunable low-rank branch: effective weight W0 + B A.

    ``protected`` holds the components of the ORIGINAL pretrained weight (not
    of ``w0``) that ``plan.protected`` lists, in that order; the maintaining
    penalty is defined against them.
    """

    w0: np.ndarray  # (m, n), frozen
    b: np.ndarray   # (m, r), tunable
    a: np.ndarray   # (r, n), tunable
    plan: StmPlan
    protected: SvdFactors  # (m, p), (p,), (p, n) with p = len(plan.protected)


def select_rank(sigma: np.ndarray, cfg: StmConfig) -> int:
    """``alpha`` times the entropy rank of ``sigma``, rounded half up into ``[1, floor(K/2)]``."""
    budget = cfg.alpha * entropy_rank(sigma)
    cap = max_rank(len(sigma))
    # Clamping before rounding changes no finite budget, since round(x) >= cap
    # whenever x > cap, and keeps a product that overflows to inf roundable.
    return max(1, math.floor(round(min(budget, cap), _SNAP_DIGITS) + 0.5))


def select_directions(factors: SvdFactors, residual: np.ndarray, r: int) -> tuple[int, ...]:
    """The r directions of ``factors`` with the largest residual projections.

    Ties break toward the smaller index; the result is ascending and 1-based.
    """
    if not 1 <= r <= factors.k:
        raise ValidationError(f"r={r} outside 1..{factors.k}")
    d = project_residual(factors, residual)
    # Stable sort on -d keeps lower indices first among ties.
    order = np.argsort(-d, kind="stable")
    return tuple(sorted(int(i) + 1 for i in order[:r]))


def make_plan(factors: SvdFactors, selected) -> StmPlan:
    """Record ``selected`` and the unselected directions up to the ceiling of the stable rank."""
    sel = tuple(int(i) + 1 for i in as_component_indices(selected, factors.k))
    st = stable_rank(factors.sigma)
    cutoff = min(math.ceil(round(st, _SNAP_DIGITS)), factors.k)
    taken = set(sel)
    protected = tuple(i for i in range(1, cutoff + 1) if i not in taken)
    return StmPlan(
        r=len(sel),
        selected=sel,
        protected=protected,
        protect_cutoff=cutoff,
        entropy_rank=entropy_rank(factors.sigma),
        stable_rank=st,
    )


@dataclass(frozen=True)
class AdapterSplit:
    """What :func:`split_factors` takes from the factors for an adapter: all of it but ``W0``.

    ``selected`` holds the components that ``plan.selected`` lists, in that
    order; :func:`split_weight` subtracts them from the weight to give ``W0``.
    """

    b: np.ndarray  # (m, r)
    a: np.ndarray  # (r, n)
    plan: StmPlan
    protected: SvdFactors  # (m, p), (p,), (p, n) with p = len(plan.protected)
    selected: SvdFactors   # (m, r), (r,), (r, n)


def _components(factors: SvdFactors, idx0: np.ndarray) -> SvdFactors:
    """Copies of the components of ``factors`` at 0-based ``idx0``."""
    return SvdFactors(u=factors.u[:, idx0], sigma=factors.sigma[idx0], vt=factors.vt[idx0, :])


def split_factors(factors: SvdFactors, selected) -> AdapterSplit:
    """Everything of the adapter but ``W0``, from ``factors`` alone.

    ``B = U[:, sel] sqrt(S[sel])`` and ``A = sqrt(S[sel]) Vt[sel, :]``. It
    makes no m x n array and keeps copies of the selected and protected
    components, not ``factors`` itself, so the caller may drop ``factors``
    before :func:`split_weight`. Selected components with a zero singular
    value are legal but useless (their adapter column starts at zero) and
    trigger a warning.
    """
    plan = make_plan(factors, selected)
    sel = _components(factors, np.asarray(plan.selected, dtype=int) - 1)
    if np.any(sel.sigma == 0.0):
        warnings.warn("selected a direction with zero singular value; its adapter "
                      "column is initialized to zero", stacklevel=2)
    sqrt_s = np.sqrt(sel.sigma)
    return AdapterSplit(b=sel.u * sqrt_s, a=sqrt_s[:, None] * sel.vt, plan=plan,
                        protected=_components(factors, np.asarray(plan.protected, dtype=int) - 1),
                        selected=sel)


def split_weight(weight: np.ndarray, split: AdapterSplit) -> AdaptedLayer:
    """The adapted layer: ``W0 = W - U[:, sel] S[sel] Vt[sel, :]`` beside ``split``'s adapter.

    ``split`` must come from the factors of ``weight``, so that ``W0 + B A
    == W`` up to rounding. ``W0`` is computed into the array that
    :func:`reconstruct` returns for the selected components, straight from
    ``weight``'s own dtype, so the step allocates one m x n matrix, not two,
    also for a ``float32`` weight; ``weight`` itself is not modified.
    """
    weight = as_real_array(weight, "weight")
    f = split.selected
    if weight.shape != (f.m, f.n):
        raise ValidationError(f"weight shape {weight.shape} does not match factors ({f.m}, {f.n})")
    w0 = reconstruct(f)
    np.subtract(weight, w0, out=w0)  # widening float32 to float64 is exact
    return AdaptedLayer(w0=w0, b=split.b, a=split.a, plan=split.plan, protected=split.protected)


def protected_terms(layer: AdaptedLayer) -> np.ndarray:
    """Signed values sigma_i * u_i^T (B A) v_i over the protected set.

    The maintaining penalty sums their magnitudes; the largest magnitude is
    the worst drift into a protected direction.
    """
    f = layer.protected
    left = f.u.T @ layer.b          # (p, r)
    right = layer.a @ f.vt.T        # (r, p)
    return f.sigma * np.einsum("pr,rp->p", left, right)


def maintaining_penalty(layers: list[AdaptedLayer]) -> float:
    """Mean over layers of ``sum_{i protected} |sigma_i u_i^T (B A) v_i|``.

    The factors are those of the original pretrained weights, so right after
    :func:`split_weight` the penalty is zero: ``B A`` spans only the
    selected directions, which are orthogonal to every protected one.
    """
    if not layers:
        raise ValidationError("need at least one adapted layer")
    total = 0.0
    for layer in layers:
        total += float(np.sum(np.abs(protected_terms(layer))))
    return total / len(layers)


def maintaining_penalty_grad(layer: AdaptedLayer) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the single-layer penalty term w.r.t. ``b`` and ``a``.

    Uses subgradient 0 where a term sits exactly at zero, so a freshly
    initialized adapter is a stationary point.
    """
    u, sigma, v = layer.protected.u, layer.protected.sigma, layer.protected.vt
    coeff = sigma * np.sign(protected_terms(layer))  # zero where the term is exactly zero
    av = layer.a @ v.T              # (r, p), columns A v_i
    bu = layer.b.T @ u              # (r, p), columns B^T u_i
    grad_b = (u * coeff) @ av.T     # sum_i coeff_i u_i (A v_i)^T
    grad_a = (bu * coeff) @ v       # sum_i coeff_i (B^T u_i) v_i^T
    return grad_b, grad_a
