import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankadapt.eranks import entropy_rank
from rankadapt.errors import ValidationError
from rankadapt.harness import finite_difference_check
from rankadapt.spectral import decompose
from rankadapt.stm import (
    StmConfig,
    StmPlan,
    adapt_layer,
    initialize_adapter,
    maintaining_penalty,
    maintaining_penalty_grad,
    max_rank,
    protected_terms,
    select_directions,
    select_rank,
)

from conftest import JSON, rand_matrix


def cfg(alpha=1.0):
    return StmConfig(alpha=alpha)


PLAN_RECORD = {"r": 1, "selected": [1], "protected": [], "protect_cutoff": 0,
               "entropy_rank": 1.0, "stable_rank": 1.0}


def _plan_record(selected, cutoff, rng, entropy, stable) -> dict:
    """A well-formed plan record: ``protected`` is a random part of 1..cutoff outside ``selected``."""
    protected = [i for i in range(1, cutoff + 1) if i not in selected and rng.random() < 0.5]
    return {"r": len(selected), "selected": sorted(selected), "protected": protected,
            "protect_cutoff": cutoff, "entropy_rank": entropy, "stable_rank": stable}


def owned_nbytes(layer) -> int:
    """Bytes of every array ``layer`` holds."""
    f = layer.protected
    return sum(x.nbytes for x in (layer.w0, layer.b, layer.a, f.u, f.sigma, f.vt))


def float64_then_float32(argname, values):
    """``(value, dtype)`` cases: float64 under pytest's usual ids, then float32."""
    return [pytest.param(value, dtype, id=f"{prefix}{argname}{i}")
            for dtype, prefix in ((np.float64, ""), (np.float32, "float32-"))
            for i, value in enumerate(values)]


class TestSelectRank:
    def test_identity_half(self):
        assert select_rank(decompose(np.eye(8)).sigma, cfg(alpha=0.5)) == 4

    def test_overflowing_budget_takes_the_cap(self):
        sigma = decompose(rand_matrix(0, 16, 12)).sigma
        assert select_rank(sigma, cfg(alpha=1e308)) == 6

    def test_rank_one_clamps_to_min(self):
        w = np.zeros((8, 8))
        w[0, 0] = 5.0
        assert select_rank(decompose(w).sigma, cfg(alpha=0.1)) == 1

    def test_cap_clamps_small_matrices(self):
        # entropy rank of (2,1) is ~1.89; alpha=1 rounds to 2 but the
        # cap floor(K/2)=1 wins
        sigma = decompose(np.diag([2.0, 1.0])).sigma
        assert select_rank(sigma, cfg(alpha=1.0)) == 1
        assert round(entropy_rank(sigma)) == 2

    def test_monotone_in_alpha(self):
        w = rand_matrix(0, 16, 16)
        sigma = decompose(w).sigma
        ranks = [select_rank(sigma, cfg(alpha=a)) for a in (0.05, 0.1, 0.2, 0.3, 0.4)]
        assert ranks == sorted(ranks)

    def test_single_component_has_no_budget(self):
        with pytest.raises(ValidationError, match=r"rank cap floor\(K/2\) = 0 for K=1"):
            select_rank(decompose(np.ones((1, 4))).sigma, cfg(alpha=1.0))
        assert max_rank(2) == max_rank(3) == 1


class TestSelectDirections:
    def test_diagonal(self):
        f = decompose(np.diag([3.0, 2.0, 1.0]))
        assert select_directions(f, np.diag([0.0, 0.5, 0.9]), 2) == (2, 3)

    def test_all_tie_takes_lowest(self):
        f = decompose(np.diag([3.0, 2.0, 1.0]))
        assert select_directions(f, np.zeros((3, 3)), 2) == (1, 2)

    def test_planted_components_win(self):
        f = decompose(rand_matrix(9, 12, 8))
        residual = 0.7 * np.outer(f.u[:, 4], f.vt[4, :]) + 0.3 * np.outer(f.u[:, 0], f.vt[0, :])
        assert select_directions(f, residual, 1) == (5,)
        assert select_directions(f, residual, 2) == (1, 5)

    def test_r_out_of_range(self):
        f = decompose(np.eye(3))
        with pytest.raises(ValidationError):
            select_directions(f, np.zeros((3, 3)), 4)
        with pytest.raises(ValidationError):
            select_directions(f, np.zeros((3, 3)), 0)

    def test_recovery_with_noise(self):
        # planted amplitudes dominate off-set projections by far more than 10x
        for seed_ in range(10):
            w = rand_matrix(seed_, 16, 10)
            f = decompose(w)
            planted = (2, 5, 8)
            amps = (1.0, -0.8, 0.6)
            residual = sum(c * np.outer(f.u[:, i - 1], f.vt[i - 1, :])
                           for i, c in zip(planted, amps))
            residual = residual + 1e-3 * rand_matrix(seed_ + 100, 16, 10)
            assert select_directions(f, residual, 3) == planted


class TestInitializeAdapter:
    def test_diagonal_worked_example(self):
        w = np.diag([3.0, 2.0, 1.0])
        layer = initialize_adapter(w, decompose(w), {2, 3})
        assert np.allclose(layer.w0, np.diag([3.0, 0.0, 0.0]), atol=1e-12)
        expected_b = np.array([[0.0, 0.0], [np.sqrt(2.0), 0.0], [0.0, 1.0]])
        expected_a = np.array([[0.0, np.sqrt(2.0), 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(layer.b, expected_b, atol=1e-12)
        assert np.allclose(layer.a, expected_a, atol=1e-12)
        assert np.allclose(layer.w0 + layer.b @ layer.a, w, atol=1e-12)

    def test_empty_selection(self):
        w = rand_matrix(1, 6, 5)
        layer = initialize_adapter(w, decompose(w), ())
        assert layer.b.shape == (6, 0) and layer.a.shape == (0, 5)
        assert np.array_equal(layer.w0, w)
        assert layer.plan.r == 0

    def test_random_exactness(self):
        w = rand_matrix(2, 32, 16)
        layer = initialize_adapter(w, decompose(w), (1, 2, 3, 4))
        err = np.linalg.norm(layer.w0 + layer.b @ layer.a - w)
        assert err <= 1e-10 * np.linalg.norm(w)

    def test_exactness_sweep(self):
        rng = np.random.default_rng(77)
        for t in range(50):
            m, n = rng.integers(4, 24, size=2)
            w = rng.standard_normal((m, n))
            k = min(m, n)
            r = int(rng.integers(1, k + 1))
            selected = sorted(int(i) + 1 for i in rng.choice(k, size=r, replace=False))
            layer = initialize_adapter(w, decompose(w), selected)
            err = np.linalg.norm(layer.w0 + layer.b @ layer.a - w)
            assert err <= 1e-10 * np.linalg.norm(w)
            assert not set(layer.plan.selected) & set(layer.plan.protected)
            assert layer.plan.protect_cutoff <= k
            if layer.plan.protected:
                assert max(layer.plan.protected) <= layer.plan.protect_cutoff

    def test_zero_singular_value_warns(self):
        w = np.diag([2.0, 0.0])
        with pytest.warns(UserWarning):
            initialize_adapter(w, decompose(w), {2})

    @pytest.mark.parametrize("shape, dtype", float64_then_float32(
        "shape", [(600, 200), (200, 600), (300, 300)]))
    def test_allocates_one_full_size_matrix(self, shape, dtype):
        w = rand_matrix(5, *shape).astype(dtype)
        f = decompose(w)
        selected = range(1, f.k + 1, 10)
        tracemalloc.start()
        try:
            layer = initialize_adapter(w, f, selected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * owned_nbytes(layer)
        # W0 comes out as if the weight had been widened first
        widened = initialize_adapter(w.astype(np.float64), f, selected)
        assert layer.w0.tobytes() == widened.w0.tobytes()

    @pytest.mark.parametrize("selected, dtype", float64_then_float32(
        "selected", [(), (1, 3, 4)]))
    def test_weight_not_modified(self, selected, dtype):
        w = rand_matrix(6, 9, 7).astype(dtype)
        before = w.tobytes()
        layer = initialize_adapter(w, decompose(w), selected)
        assert w.tobytes() == before
        assert layer.w0.flags.c_contiguous and not np.shares_memory(layer.w0, w)
        layer = adapt_layer(w, decompose(w), 0.1 * rand_matrix(7, 9, 7), cfg(0.5))
        assert w.tobytes() == before
        assert layer.w0.flags.c_contiguous and not np.shares_memory(layer.w0, w)

    @pytest.mark.parametrize("other", [(6, 5), (5, 7), (4, 6)])
    def test_factors_of_another_shape_rejected(self, other):
        w = rand_matrix(3, 5, 6)
        with pytest.raises(ValidationError, match="does not match factors"):
            initialize_adapter(w, decompose(rand_matrix(4, *other)), (1,))

    def test_non_integral_index_rejected(self):
        # 2.7 is not truncated to component 2
        w = rand_matrix(8, 6, 5)
        with pytest.raises(ValidationError, match="must be integers"):
            initialize_adapter(w, decompose(w), (2.7,))

    @pytest.mark.parametrize("shape", [(14, 9), (9, 14)])
    def test_layer_holds_only_the_protected_components(self, shape):
        w = rand_matrix(45, *shape)
        f = decompose(w)
        layer = adapt_layer(w, f, 0.1 * rand_matrix(46, *shape), cfg(0.5))
        p = len(layer.plan.protected)
        assert p > 0
        assert layer.protected.u.shape == (shape[0], p)
        assert layer.protected.sigma.shape == (p,)
        assert layer.protected.vt.shape == (p, shape[1])
        idx0 = np.asarray(layer.plan.protected) - 1
        assert np.array_equal(layer.protected.u, f.u[:, idx0])
        assert np.array_equal(layer.protected.sigma, f.sigma[idx0])
        assert np.array_equal(layer.protected.vt, f.vt[idx0, :])
        for held in (layer.protected.u, layer.protected.sigma, layer.protected.vt):
            for full in (f.u, f.sigma, f.vt):
                assert not np.shares_memory(held, full)


class TestAdaptLayer:
    """adapt_layer against the public chain of steps over one decomposition."""

    SHAPES = {
        "tall": (14, 9, np.float64),
        "wide": (9, 14, np.float64),
        "square": (11, 11, np.float64),
        "f32": (12, 10, np.float32),
    }
    # 1.3 reaches the rank cap on every shape
    ALPHAS = {"default": 0.5, "large": 1.3, "small": 0.2}

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_step_by_step_bit_for_bit(self, shape, alpha):
        m, n, dtype = self.SHAPES[shape]
        w = rand_matrix(41, m, n).astype(dtype)
        dw = (0.1 * rand_matrix(42, m, n)).astype(dtype)
        c = cfg(self.ALPHAS[alpha])

        fast = adapt_layer(w, decompose(w), dw, c)
        f = decompose(w)
        ref = initialize_adapter(w, f, select_directions(f, dw, select_rank(f.sigma, c)))

        assert fast.plan == ref.plan
        for attr in ("w0", "b", "a"):
            assert np.array_equal(getattr(fast, attr), getattr(ref, attr)), attr
        for attr in ("u", "sigma", "vt"):
            assert np.array_equal(getattr(fast.protected, attr),
                                  getattr(ref.protected, attr)), attr


class TestStmPlanRecord:
    def test_round_trip_through_json(self):
        w = rand_matrix(43, 12, 9)
        plan = adapt_layer(w, decompose(w), 0.1 * rand_matrix(44, 12, 9), cfg(0.5)).plan
        record = plan.to_dict()
        assert list(record) == ["r", "selected", "protected", "protect_cutoff",
                                "entropy_rank", "stable_rank"]
        assert json.loads(json.dumps(record)) == record
        assert StmPlan.from_dict(json.loads(json.dumps(record))) == plan
        # a plan file's extra keys are not plan fields
        assert StmPlan.from_dict({"name": "w", **record, "config": {"alpha": 0.5}}) == plan

    def test_well_formed_record_accepted(self):
        # each malformed case differs from this record in one field
        assert StmPlan.from_dict(PLAN_RECORD) == StmPlan(1, (1,), (), 0, 1.0, 1.0)
        assert StmPlan.from_dict({**PLAN_RECORD, "entropy_rank": 1}).entropy_rank == 1.0

    @pytest.mark.parametrize("record", [
        {"r": 1, "selected": [1]},
        {"r": 1, "selected": 1, "protected": [], "protect_cutoff": 0,
         "entropy_rank": 1.0, "stable_rank": 1.0},
        {"r": "one", "selected": [1], "protected": [], "protect_cutoff": 0,
         "entropy_rank": 1.0, "stable_rank": 1.0},
        {**PLAN_RECORD, "r": "2"},
        {**PLAN_RECORD, "r": True},
        {**PLAN_RECORD, "r": 2.9},
        {**PLAN_RECORD, "r": 2, "selected": [1.7, 2]},
        {**PLAN_RECORD, "r": 2, "selected": "12"},
        {**PLAN_RECORD, "protected": [True]},
        {**PLAN_RECORD, "protect_cutoff": 1.0},
        {**PLAN_RECORD, "entropy_rank": True},
        {**PLAN_RECORD, "stable_rank": "1.0"},
        {**PLAN_RECORD, "entropy_rank": 10**400},  # beyond float, so no OverflowError
        {**PLAN_RECORD, "stable_rank": math.nan},
        {**PLAN_RECORD, "entropy_rank": math.inf},
        {**PLAN_RECORD, "r": -3},
        {**PLAN_RECORD, "protect_cutoff": -1},
        {**PLAN_RECORD, "selected": [0]},
        {**PLAN_RECORD, "r": 5},  # r counts the selected directions
        {**PLAN_RECORD, "r": 2, "selected": [2, 1]},
        {**PLAN_RECORD, "r": 2, "selected": [1, 1]},
        {**PLAN_RECORD, "protected": [3], "protect_cutoff": 1},
        {**PLAN_RECORD, "protected": [1], "protect_cutoff": 1},  # also selected
    ])
    def test_malformed_record_rejected(self, record):
        with pytest.raises(ValidationError):
            StmPlan.from_dict(record)

    @settings(max_examples=300, deadline=None)
    @given(record=JSON | st.builds(_plan_record, st.sets(st.integers(1, 8)), st.integers(0, 8),
                                   st.randoms(use_true_random=False),
                                   st.floats(0, 8), st.floats(0, 8)),
           field=st.sampled_from([None, *PLAN_RECORD]), value=JSON)
    def test_fuzz_record(self, record, field, value):
        # a well-formed plan, one with a field set to any JSON value, or any JSON value
        if field is not None and isinstance(record, dict):
            record = {**record, field: value}
        try:
            plan = StmPlan.from_dict(record)
        except ValidationError:
            return
        assert StmPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan


class TestMaintainingPenalty:
    def test_zero_at_init(self):
        for seed_ in range(20):
            w = rand_matrix(seed_, 12, 9)
            layer = initialize_adapter(w, decompose(w), (1, 4))
            assert maintaining_penalty([layer]) <= 1e-9

    def test_hand_computed_example(self):
        w = np.diag([3.0, 2.0, 1.0])
        layer = initialize_adapter(w, decompose(w), {3})
        assert layer.plan.protect_cutoff == 2
        assert layer.plan.protected == (1, 2)
        layer.b = np.diag([0.1, 0.2, 0.5])
        layer.a = np.eye(3)
        assert maintaining_penalty([layer]) == pytest.approx(0.7, abs=1e-12)
        # mean over two identical layers is unchanged
        assert maintaining_penalty([layer, layer]) == pytest.approx(0.7, abs=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            maintaining_penalty([])

    def test_nothing_protected(self):
        # stable rank 14/9 gives cutoff 2, and both leading directions are selected
        w = np.diag([3.0, 2.0, 1.0])
        layer = initialize_adapter(w, decompose(w), {1, 2})
        assert layer.plan.protect_cutoff == 2 and layer.plan.protected == ()
        rng = np.random.default_rng(0)
        layer.b = layer.b + rng.standard_normal(layer.b.shape)
        layer.a = layer.a + rng.standard_normal(layer.a.shape)
        terms, sigma = protected_terms(layer), layer.protected.sigma
        assert terms.shape == sigma.shape == (0,) and terms.dtype == np.float64
        assert maintaining_penalty([layer]) == 0.0
        grad_b, grad_a = maintaining_penalty_grad(layer)
        assert grad_b.shape == (3, 2) and grad_a.shape == (2, 3)
        assert not grad_b.any() and not grad_a.any()


class TestMaintainingPenaltyGrad:
    def _perturbed_layer(self, seed_):
        rng = np.random.default_rng(seed_)
        w = rng.standard_normal((10, 7))
        layer = initialize_adapter(w, decompose(w), (2, 6))
        layer.b = layer.b + 0.25 * rng.standard_normal(layer.b.shape)
        layer.a = layer.a + 0.25 * rng.standard_normal(layer.a.shape)
        return layer

    @pytest.mark.parametrize("shape", [(10, 7), (7, 10)])
    def test_matches_full_factor_reference_bit_for_bit(self, shape):
        rng = np.random.default_rng(12)
        w = rng.standard_normal(shape)
        layer = initialize_adapter(w, decompose(w), (2, 6))
        layer.b = layer.b + 0.25 * rng.standard_normal(layer.b.shape)
        layer.a = layer.a + 0.25 * rng.standard_normal(layer.a.shape)
        # the terms and gradient over the protected columns of the full factors
        f = decompose(w)
        idx0 = np.asarray(layer.plan.protected, dtype=int) - 1
        assert idx0.size
        u, sigma, vt = f.u[:, idx0], f.sigma[idx0], f.vt[idx0, :]
        terms = sigma * np.einsum("pr,rp->p", u.T @ layer.b, layer.a @ vt.T)
        coeff = sigma * np.sign(terms)
        grad_b = (u * coeff) @ (layer.a @ vt.T).T
        grad_a = ((layer.b.T @ u) * coeff) @ vt
        assert np.array_equal(protected_terms(layer), terms)
        got_b, got_a = maintaining_penalty_grad(layer)
        assert np.array_equal(got_b, grad_b) and np.array_equal(got_a, grad_a)

    def test_zero_gradient_at_init(self):
        w = rand_matrix(4, 9, 6)
        layer = initialize_adapter(w, decompose(w), (3,))
        grad_b, grad_a = maintaining_penalty_grad(layer)
        assert np.max(np.abs(grad_b)) <= 1e-12
        assert np.max(np.abs(grad_a)) <= 1e-12

    def test_matches_finite_differences(self):
        for seed_ in range(10):
            layer = self._perturbed_layer(seed_)
            grad_b, grad_a = maintaining_penalty_grad(layer)

            def pen_with_b(b):
                saved, layer.b = layer.b, b
                value = maintaining_penalty([layer])
                layer.b = saved
                return value

            def pen_with_a(a):
                saved, layer.a = layer.a, a
                value = maintaining_penalty([layer])
                layer.a = saved
                return value

            assert finite_difference_check(pen_with_b, layer.b, grad_b, 1e-6) <= 1e-4
            assert finite_difference_check(pen_with_a, layer.a, grad_a, 1e-6) <= 1e-4

    def test_homogeneity_in_b(self):
        layer = self._perturbed_layer(3)
        terms1 = protected_terms(layer)
        grad_a1 = maintaining_penalty_grad(layer)[1]
        layer.b = 2.0 * layer.b
        terms2 = protected_terms(layer)
        grad_a2 = maintaining_penalty_grad(layer)[1]
        assert np.allclose(terms2, 2.0 * terms1, atol=1e-12)
        # signs unchanged, so grad_a scales like B: same direction, doubled
        assert np.allclose(grad_a2, 2.0 * grad_a1, atol=1e-12)
