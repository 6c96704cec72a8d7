"""Selecting-Tuning-Maintaining core for low-rank adaptation.

Given a pretrained weight ``W`` and a full-fine-tuned residual ``dW``, this
module picks a per-layer rank budget from the entropy rank, picks the
singular directions of ``W`` on which ``dW`` projects most strongly, splits
those directions out of the frozen base into an exactly-initialized adapter
``W = W0 + B @ A``, and scores a penalty that keeps training away from the
leading (stable-rank protected) directions that were not selected.
Every step after the decomposition consumes the factors of ``W``;
:func:`adapt_layer` runs the whole per-layer chain from one decomposition.

Component indices are 1-based, consistent with :mod:`rankadapt.spectral`.
"""

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .eranks import check_gamma, entropy_rank, stable_rank
from .errors import ValidationError
from .spectral import SvdFactors, as_component_indices, decompose, project_residual, reconstruct

PROTECTION_RULES = ("ceil", "floor", "round")


def _apply_rule(value: float, rule: str) -> int:
    # Snap away float fuzz first so e.g. ceil(2 + 1e-16) stays 2.
    v = round(value, 12)
    if rule == "ceil":
        return int(math.ceil(v))
    if rule == "floor":
        return int(math.floor(v))
    # "round": half away from zero
    return int(math.floor(v + 0.5)) if v >= 0 else int(math.ceil(v - 0.5))


@dataclass(frozen=True)
class StmConfig:
    """Knobs for rank selection and direction protection.

    ``alpha`` scales the entropy rank into a rank budget. ``protection_rule``
    turns the real-valued stable rank into the integer protection cutoff.
    ``min_rank`` and ``max_rank_fraction`` clamp the budget to
    ``[min_rank, floor(max_rank_fraction * K)]`` per layer.
    """

    alpha: float
    gamma: float = 1.0
    protection_rule: str = "ceil"
    min_rank: int = 1
    max_rank_fraction: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")
        check_gamma(self.gamma)
        if self.protection_rule not in PROTECTION_RULES:
            raise ValidationError(f"protection_rule must be one of {PROTECTION_RULES}")
        if self.min_rank < 1:
            raise ValidationError("min_rank must be at least 1")
        if not 0.0 < self.max_rank_fraction <= 1.0:
            raise ValidationError("max_rank_fraction must lie in (0, 1]")

    def max_rank(self, k: int) -> int:
        cap = int(math.floor(self.max_rank_fraction * k))
        if self.min_rank > cap:
            raise ValidationError(
                f"min_rank {self.min_rank} exceeds rank cap {cap} for K={k}"
            )
        return cap


@dataclass(frozen=True)
class StmPlan:
    """Per-layer selection result recorded for audit and serialization."""

    r: int
    selected: tuple[int, ...]   # 1-based, ascending
    protected: tuple[int, ...]  # 1-based, ascending, disjoint from selected
    protect_cutoff: int
    entropy_rank: float
    stable_rank: float

    def to_dict(self) -> dict:
        """The plan as JSON-ready fields, in declaration order, index sets as lists."""
        return {**asdict(self),
                "selected": list(self.selected), "protected": list(self.protected)}

    @classmethod
    def from_dict(cls, data: dict) -> "StmPlan":
        """The plan recorded by :meth:`to_dict`.

        Keys that are not plan fields, such as the ``name`` and ``config`` of
        a ``*.plan.json`` file, are ignored.
        """
        try:
            return cls(
                r=int(data["r"]),
                selected=tuple(int(i) for i in data["selected"]),
                protected=tuple(int(i) for i in data["protected"]),
                protect_cutoff=int(data["protect_cutoff"]),
                entropy_rank=float(data["entropy_rank"]),
                stable_rank=float(data["stable_rank"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed plan record: {exc!r}") from exc


@dataclass
class AdaptedLayer:
    """A frozen base plus a tunable low-rank branch: effective weight W0 + B A.

    ``frozen_factors`` are the factors of the ORIGINAL pretrained weight (not
    of ``w0``); the maintaining penalty is defined against them.
    """

    w0: np.ndarray  # (m, n), frozen
    b: np.ndarray   # (m, r), tunable
    a: np.ndarray   # (r, n), tunable
    plan: StmPlan
    frozen_factors: SvdFactors


def select_rank(sigma: np.ndarray, cfg: StmConfig) -> int:
    """Entropy-rank-proportional rank budget for spectrum ``sigma``, rounded and clamped."""
    budget = cfg.alpha * entropy_rank(sigma, cfg.gamma)
    cap = cfg.max_rank(len(sigma))
    # Clamping before rounding changes no finite budget, since round(x) >= cap
    # whenever x > cap, and keeps a product that overflows to inf roundable.
    return max(cfg.min_rank, _apply_rule(min(budget, cap), "round"))


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


def make_plan(factors: SvdFactors, selected, cfg: StmConfig) -> StmPlan:
    """Record selection plus the protected leading directions of ``factors``."""
    sel = tuple(int(i) + 1 for i in as_component_indices(selected, factors.k))
    st = stable_rank(factors.sigma, cfg.gamma)
    cutoff = max(0, min(_apply_rule(st, cfg.protection_rule), factors.k))
    protected = tuple(i for i in range(1, cutoff + 1) if i not in set(sel))
    return StmPlan(
        r=len(sel),
        selected=sel,
        protected=protected,
        protect_cutoff=cutoff,
        entropy_rank=entropy_rank(factors.sigma, cfg.gamma),
        stable_rank=st,
    )


def initialize_adapter(weight: np.ndarray, factors: SvdFactors, selected,
                       cfg: StmConfig) -> AdaptedLayer:
    """Split the selected components of ``factors`` out of ``weight`` into an exact adapter.

    ``factors`` must be the decomposition of ``weight``.
    ``B = U[:, sel] sqrt(S[sel])`` and ``A = sqrt(S[sel]) Vt[sel, :]``, with
    ``W0 = W - U[:, sel] S[sel] Vt[sel, :]`` so that ``W0 + B A == W`` up to
    rounding. ``W0`` is computed into the array that :func:`reconstruct`
    returns, so the split allocates one m x n matrix, not two; ``weight``
    itself is not modified. Selected components with a zero singular value
    are legal but useless (their adapter column starts at zero) and trigger
    a warning.
    """
    w = np.asarray(weight, dtype=np.float64)
    if w.shape != (factors.m, factors.n):
        raise ValidationError(
            f"weight shape {w.shape} does not match factors ({factors.m}, {factors.n})"
        )
    plan = make_plan(factors, selected, cfg)
    idx0 = np.asarray(plan.selected, dtype=int) - 1
    if np.any(factors.sigma[idx0] == 0.0):
        warnings.warn("selected a direction with zero singular value; its adapter "
                      "column is initialized to zero", stacklevel=2)
    sqrt_s = np.sqrt(factors.sigma[idx0])
    b = factors.u[:, idx0] * sqrt_s
    a = sqrt_s[:, None] * factors.vt[idx0, :]
    w0 = reconstruct(factors, plan.selected)
    np.subtract(w, w0, out=w0)
    return AdaptedLayer(w0=w0, b=b, a=a, plan=plan, frozen_factors=factors)


def adapt_layer(weight: np.ndarray, residual: np.ndarray, cfg: StmConfig) -> AdaptedLayer:
    """Analyze, select and initialize one layer from a single decomposition.

    ``weight`` is widened and decomposed once, and those factors feed the
    rank budget, the direction selection, the plan and the split.
    """
    w = np.asarray(weight, dtype=np.float64)
    factors = decompose(w)
    selected = select_directions(factors, residual, select_rank(factors.sigma, cfg))
    return initialize_adapter(w, factors, selected, cfg)


def protected_terms(layer: AdaptedLayer) -> tuple[np.ndarray, np.ndarray]:
    """Signed values sigma_i * u_i^T (B A) v_i over the protected set, plus sigma.

    The maintaining penalty sums the magnitudes of the first array; its
    largest magnitude is the worst drift into a protected direction.
    """
    idx0 = np.asarray(layer.plan.protected, dtype=int) - 1
    if idx0.size == 0:
        return np.zeros(0), np.zeros(0)
    f = layer.frozen_factors
    left = f.u[:, idx0].T @ layer.b          # (p, r)
    right = layer.a @ f.vt[idx0, :].T        # (r, p)
    vals = np.einsum("pr,rp->p", left, right)
    return f.sigma[idx0] * vals, f.sigma[idx0]


def maintaining_penalty(layers: list[AdaptedLayer]) -> float:
    """Mean over layers of ``sum_{i protected} |sigma_i u_i^T (B A) v_i|``.

    The factors are those of the original pretrained weights, so right after
    :func:`initialize_adapter` the penalty is zero: ``B A`` spans only the
    selected directions, which are orthogonal to every protected one.
    """
    if not layers:
        raise ValidationError("need at least one adapted layer")
    total = 0.0
    for layer in layers:
        terms, _ = protected_terms(layer)
        total += float(np.sum(np.abs(terms)))
    return total / len(layers)


def maintaining_penalty_grad(layer: AdaptedLayer) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the single-layer penalty term w.r.t. ``b`` and ``a``.

    Uses subgradient 0 where a term sits exactly at zero, so a freshly
    initialized adapter is a stationary point.
    """
    idx0 = np.asarray(layer.plan.protected, dtype=int) - 1
    if idx0.size == 0:
        return np.zeros_like(layer.b), np.zeros_like(layer.a)
    f = layer.frozen_factors
    terms, sigma = protected_terms(layer)
    coeff = sigma * np.sign(terms)  # zero where the term is exactly zero
    u = f.u[:, idx0]                # (m, p)
    v = f.vt[idx0, :]               # (p, n)
    av = layer.a @ v.T              # (r, p), columns A v_i
    bu = layer.b.T @ u              # (r, p), columns B^T u_i
    grad_b = (u * coeff) @ av.T     # sum_i coeff_i u_i (A v_i)^T
    grad_a = (bu * coeff) @ v       # sum_i coeff_i (B^T u_i) v_i^T
    return grad_b, grad_a
