#!/usr/bin/env python3
"""Rank budgeting, residual-guided direction selection, exact initialization.

Given a pretrained weight W and the residual dW left behind by a full
fine-tune, the adapter pipeline (1) sizes a per-layer rank budget from the
entropy rank, (2) picks the singular directions of W on which dW projects
most strongly, and (3) splits those directions into a low-rank branch so
that W0 + B A reproduces W exactly at the start of training. All three
steps consume one decomposition of W.
"""

import numpy as np

from rankadapt import (
    StmConfig,
    decompose,
    maintaining_penalty,
    merge,
    project_residual,
    select_directions,
    select_rank,
    split_factors,
    split_weight,
    trainable_param_count,
)

rng = np.random.default_rng(7)

# A pretrained weight with a decaying spectrum, and a residual that lives
# mostly in components 2 and 5 of that weight's own basis.
w = decompose(rng.standard_normal((18, 14)))
sigma = 0.65 ** np.arange(14)
weight = (w.u * sigma) @ w.vt
factors = decompose(weight)
residual = (0.8 * np.outer(factors.u[:, 1], factors.vt[1, :])
            + 0.5 * np.outer(factors.u[:, 4], factors.vt[4, :])
            + 0.01 * rng.standard_normal(weight.shape))

cfg = StmConfig(alpha=0.6)
r = select_rank(factors.sigma, cfg)
print(f"entropy-rank-scaled budget: r = {r}")

d = project_residual(factors, residual)
selected = select_directions(factors, residual, r)
print("projection magnitudes:", np.array2string(d, precision=3))
print(f"selected directions (1-based): {selected}")

layer = split_weight(weight, split_factors(factors, selected))
exact = np.linalg.norm(merge(layer) - weight) / np.linalg.norm(weight)
print(f"\n||W0 + BA - W|| / ||W|| = {exact:.2e}  (exact split)")
print(f"plan: r={layer.plan.r}, protected={layer.plan.protected}, "
      f"cutoff={layer.plan.protect_cutoff}")
print(f"penalty right after init: {maintaining_penalty([layer]):.2e}")
print(f"trainable parameters: {trainable_param_count([layer])} "
      f"of {weight.size} in the dense layer")

# Zero singular values are legal selections; the adapter just starts those
# columns at zero. A rank-1 weight makes this visible.
rank1 = np.outer(rng.standard_normal(6), rng.standard_normal(5))
print(f"\nrank-1 example budget: r = {select_rank(decompose(rank1).sigma, StmConfig(alpha=0.3))}")
