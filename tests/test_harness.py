import numpy as np
import pytest

from rankadapt.eranks import entropy_rank, stable_rank
from rankadapt.errors import TrainingDivergedError, ValidationError
from rankadapt.harness import (
    BASELINES,
    PlantedDirections,
    TrainConfig,
    finite_difference_check,
    full_finetune_proxy,
    make_proxy_task,
    make_synthetic_model,
    mse_and_grads,
    run_stm_experiment,
    task_loss,
)
from rankadapt.spectral import decompose, project_residual
from rankadapt.stm import StmConfig

from conftest import count_svd_calls


class TestMakeSyntheticModel:
    def test_uniform_spectrum(self):
        model = make_synthetic_model([(4, 4, (1.0, 1.0, 1.0, 1.0))], seed=0)
        assert entropy_rank(decompose(model.layers[0]).sigma) == pytest.approx(4.0, abs=1e-9)

    def test_geometric_decay_reproducible(self):
        m1 = make_synthetic_model([(8, 8, 0.5)], seed=9)
        m2 = make_synthetic_model([(8, 8, 0.5)], seed=9)
        assert np.array_equal(m1.layers[0], m2.layers[0])
        ent = entropy_rank(decompose(m1.layers[0]).sigma)
        assert 1.0 < ent < 8.0

    def test_depth_trend(self):
        model = make_synthetic_model([(12, 12, 0.3), (12, 12, 0.9)], seed=1)
        shallow = decompose(model.layers[0]).sigma
        deep = decompose(model.layers[1]).sigma
        assert entropy_rank(deep) > entropy_rank(shallow)
        assert stable_rank(deep) > stable_rank(shallow)

    def test_invalid_prescriptions(self):
        with pytest.raises(ValidationError):
            make_synthetic_model([(4, 4, 1.5)], seed=0)
        with pytest.raises(ValidationError):
            make_synthetic_model([(4, 4, (1.0, 2.0, 0.5, 0.1))], seed=0)
        with pytest.raises(ValidationError):
            make_synthetic_model([(4, 4, (1.0, 0.5))], seed=0)
        with pytest.raises(ValidationError):
            make_synthetic_model([(4, 4, 0.5)], seed=0, activation="relu")


class TestFullFinetuneProxy:
    def test_fixed_point_when_nothing_planted(self):
        model = make_synthetic_model([(8, 6, 0.7)], seed=2)
        task = make_proxy_task(model, [None], n_samples=32, noise=0.0, seed=3)
        residuals = full_finetune_proxy(model, task, TrainConfig(steps=50, learning_rate=0.3))
        assert np.linalg.norm(residuals[0]) <= 1e-6

    def test_planted_direction_dominates_residual(self):
        model = make_synthetic_model([(12, 10, 0.6)], seed=4)
        task = make_proxy_task(model, [PlantedDirections((4,), (1.2,))],
                               n_samples=64, noise=0.01, seed=5)
        residuals = full_finetune_proxy(model, task, TrainConfig(steps=300, learning_rate=0.5))
        d = project_residual(decompose(model.layers[0]), residuals[0])
        assert int(np.argmax(d)) + 1 == 4

    def test_gradients_match_finite_differences(self):
        model = make_synthetic_model([(6, 5, 0.6), (4, 6, 0.9)], seed=6, activation="tanh")
        task = make_proxy_task(model, [None, None], n_samples=16, noise=0.1, seed=7)
        weights = [w + 0.05 for w in model.layers]
        _, grads = mse_and_grads(weights, "tanh", task.inputs, task.targets)
        for li in range(2):
            def loss_of(wl, li=li):
                trial = [wl if j == li else weights[j] for j in range(2)]
                return task_loss(trial, "tanh", task)

            assert finite_difference_check(loss_of, weights[li], grads[li]) <= 1e-5

    def test_divergence_detected(self):
        model = make_synthetic_model([(8, 6, 0.7)], seed=8)
        task = make_proxy_task(model, [PlantedDirections((2,), (1.0,))],
                               n_samples=32, noise=0.0, seed=9)
        with pytest.raises(TrainingDivergedError):
            full_finetune_proxy(model, task, TrainConfig(steps=100, learning_rate=500.0))

    def test_minibatch_path_deterministic(self):
        model = make_synthetic_model([(8, 6, 0.7)], seed=10)
        task = make_proxy_task(model, [PlantedDirections((1,), (0.5,))],
                               n_samples=32, noise=0.02, seed=11)
        cfg = TrainConfig(steps=40, learning_rate=0.3, batch_size=8)
        r1 = full_finetune_proxy(model, task, cfg)
        r2 = full_finetune_proxy(model, task, cfg)
        assert np.array_equal(r1[0], r2[0])


class TestFiniteDifferenceCheck:
    def test_quadratic(self):
        point = np.random.default_rng(12).standard_normal((5, 4))

        def f(x):
            return float(np.sum(x * x))

        # central differences are exact on quadratics; only roundoff remains
        assert finite_difference_check(f, point, 2.0 * point, 1e-3) <= 1e-8

    def test_bad_step_and_shape(self):
        point = np.ones((2, 2))
        with pytest.raises(ValidationError):
            finite_difference_check(lambda x: 0.0, point, point, step=0.0)
        with pytest.raises(ValidationError):
            finite_difference_check(lambda x: 0.0, point, np.ones(3))


def _experiment_parts(seed, noise=0.02):
    model = make_synthetic_model([(16, 12, 0.6)], seed=seed)
    planted = [PlantedDirections(indices=(3, 7), amplitudes=(0.9, 0.7))]
    task = make_proxy_task(model, planted, n_samples=64, noise=noise, seed=seed + 100)
    return model, task


class TestRunStmExperiment:
    def test_deterministic_reports(self):
        model, task = _experiment_parts(0)
        cfg = StmConfig(alpha=0.5)
        tc = TrainConfig(steps=120, learning_rate=0.5, seed=0)
        rep1 = run_stm_experiment(model, task, cfg, tc, reg_weight=1.0)
        rep2 = run_stm_experiment(model, task, cfg, tc, reg_weight=1.0)
        assert rep1.records == rep2.records

    def test_nothing_to_adapt(self):
        model = make_synthetic_model([(16, 12, 0.6)], seed=1)
        task = make_proxy_task(model, [None], n_samples=64, noise=0.0, seed=2)
        rep = run_stm_experiment(model, task, StmConfig(alpha=0.5),
                                 TrainConfig(steps=60, learning_rate=0.5, seed=1))
        for rec in rep.records:
            assert rec["update_norm"] <= 1e-5
            assert rec["recall"] == "na"  # no planted set to score against

    def test_planted_recovery_recall(self):
        model, task = _experiment_parts(3)
        rep = run_stm_experiment(model, task, StmConfig(alpha=0.5),
                                 TrainConfig(steps=150, learning_rate=0.5, seed=3))
        stm_row = rep.records[0]
        assert stm_row["method"] == "stm"
        assert stm_row["recall"] == 1.0

    def test_regularization_reduces_drift(self):
        model, task = _experiment_parts(4)
        cfg = StmConfig(alpha=0.5)
        tc = TrainConfig(steps=150, learning_rate=0.5, seed=4)
        drift_off = run_stm_experiment(model, task, cfg, tc, reg_weight=0.0).records[0]["drift"]
        drift_on = run_stm_experiment(model, task, cfg, tc, reg_weight=1.0).records[0]["drift"]
        assert 0.0 < drift_on < drift_off

    def test_baseline_rows_present(self):
        model, task = _experiment_parts(5)
        tc = TrainConfig(steps=80, learning_rate=0.5, seed=5, baseline="random_subset_lora")
        rep = run_stm_experiment(model, task, StmConfig(alpha=0.5), tc)
        methods = [rec["method"] for rec in rep.records]
        assert methods == ["stm", "random_subset_lora"]
        assert rep.records[1]["recall"] == "na"  # scored for the selecting method only

    def test_separate_adapter_task(self):
        model, task = _experiment_parts(6)
        _, other = _experiment_parts(6, noise=0.05)
        rep = run_stm_experiment(model, task, StmConfig(alpha=0.5),
                                 TrainConfig(steps=80, learning_rate=0.5, seed=6),
                                 adapter_task=other)
        assert rep.records[0]["final_loss"] > 0.0

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_one_svd_per_layer(self, monkeypatch, baseline):
        # the baseline reuses the STM layers' factors instead of decomposing again
        model = make_synthetic_model([(16, 12, 0.6), (10, 16, 0.8)], seed=7)
        planted = [PlantedDirections((3,), (0.9,)), None]
        task = make_proxy_task(model, planted, n_samples=32, noise=0.02, seed=8)
        calls = count_svd_calls(monkeypatch)
        run_stm_experiment(model, task, StmConfig(alpha=0.5),
                           TrainConfig(steps=5, learning_rate=0.5, baseline=baseline))
        assert calls == {True: len(model.layers), False: 0}
