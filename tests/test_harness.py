import math
import warnings
from collections import Counter

import numpy as np
import pytest

import rankadapt.harness as harness
from rankadapt.adapter import merge
from rankadapt.eranks import entropy_rank, stable_rank
from rankadapt.errors import DegenerateSpectrumError, TrainingDivergedError, ValidationError
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
)
from rankadapt.spectral import decompose, project_residual
from rankadapt.stm import StmConfig

from conftest import count_svd_calls


@pytest.mark.parametrize("make", [
    lambda: StmConfig(alpha=True),
    lambda: StmConfig(alpha="0.5"),
    lambda: TrainConfig(steps=2.5, learning_rate=0.1),  # range() would raise mid-run
    lambda: TrainConfig(steps=True, learning_rate=0.1),
    lambda: TrainConfig(steps=10, learning_rate="0.1"),
    lambda: TrainConfig(steps=10, learning_rate=False),
    lambda: TrainConfig(steps=10, learning_rate=10**400),  # no OverflowError
    lambda: TrainConfig(steps=10, learning_rate=0.1, seed=2.5),
    lambda: TrainConfig(steps=10, learning_rate=0.1, seed=True),
    lambda: TrainConfig(steps=10, learning_rate=0.1, seed=-1),
], ids=["alpha_bool", "alpha_str", "steps_float", "steps_bool", "lr_str", "lr_bool",
        "lr_huge_int", "seed_float", "seed_bool", "seed_negative"])
def test_config_scalar_not_a_real_number_rejected(make):
    with pytest.raises(ValidationError):
        make()


def _tiny_parts():
    model = make_synthetic_model([(6, 5, 0.6)], seed=0)
    return model, make_proxy_task(model, [None], n_samples=8, noise=0.0, seed=1)


def _run(reg_weight):
    model, task = _tiny_parts()
    return run_stm_experiment(model, task, StmConfig(alpha=0.5),
                              TrainConfig(steps=2, learning_rate=0.1), reg_weight=reg_weight)


def _task(noise=0.0, n_samples=8, amplitude=0.5, seed=1):
    model, _ = _tiny_parts()
    return make_proxy_task(model, [PlantedDirections((1,), (amplitude,))],
                           n_samples=n_samples, noise=noise, seed=seed)


def _fd_check(step):
    point = np.ones((2, 2))
    return finite_difference_check(lambda x: float(np.sum(x * x)), point, 2.0 * point, step)


@pytest.mark.parametrize("make", [
    lambda: _task(noise=True),
    lambda: _task(noise="0.1"),
    lambda: _task(noise=10**400),
    lambda: _task(n_samples=0),
    lambda: _task(n_samples=8.0),
    lambda: _task(amplitude="0.5"),
    lambda: _task(amplitude=True),
    lambda: _run(reg_weight=True),
    lambda: _run(reg_weight="0.5"),
    lambda: _run(reg_weight=10**400),
    lambda: _fd_check(step=np.inf),
    lambda: _fd_check(step="1e-3"),
    lambda: make_synthetic_model([(4, 4, "0.5")], seed=0),
    lambda: make_synthetic_model([(4, 4, True)], seed=0),
    lambda: make_synthetic_model([(4, 4, 10**400)], seed=0),
    lambda: make_synthetic_model([(4.0, 4, 0.5)], seed=0),
    lambda: make_synthetic_model([(4, True, 0.5)], seed=0),
    lambda: make_synthetic_model([(4, 4, 0.5)], seed=2.5),
    lambda: make_synthetic_model([(4, 4, 0.5)], seed=-1),
    lambda: make_synthetic_model([(4, 4, 0.5)], seed=True),
    lambda: _task(seed=2.5),
    lambda: _task(seed=-1),
    lambda: _task(seed=True),
], ids=["noise_bool", "noise_str", "noise_huge_int", "n_samples_zero", "n_samples_float",
        "amplitude_str", "amplitude_bool", "reg_weight_bool", "reg_weight_str",
        "reg_weight_huge_int", "step_inf", "step_str", "decay_str", "decay_bool",
        "decay_huge_int", "rows_float", "cols_bool", "model_seed_float", "model_seed_negative",
        "model_seed_bool", "task_seed_float", "task_seed_negative", "task_seed_bool"])
def test_input_not_a_real_number_or_count_rejected(make):
    with pytest.raises(ValidationError):
        make()


def test_numpy_scalars_accepted():
    assert TrainConfig(steps=1, learning_rate=np.float64(0.1)).learning_rate == 0.1
    assert _task(noise=np.float64(0.1), amplitude=np.int64(1)).targets.shape == (6, 8)
    assert len(_run(reg_weight=np.int64(1)).records) == 1 + len(BASELINES)
    assert _fd_check(step=np.float64(1e-3)) <= 1e-8
    model = make_synthetic_model([(4, 4, np.float64(0.5))], seed=0)
    assert np.allclose(decompose(model.layers[0]).sigma, 0.5 ** np.arange(4))


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
        with pytest.raises(DegenerateSpectrumError):  # exit 2, like the rest
            make_synthetic_model([(4, 3, (0.0, 0.0, 0.0))], seed=0)

    @pytest.mark.parametrize("spectrum", [(1.0, np.nan, 0.5), (np.inf, 1.0, 0.5)],
                             ids=["nan", "inf"])
    def test_non_finite_spectrum_rejected(self, spectrum):
        # rejected before the SVD, which would fail or warn on it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="spectrum contains non-finite entries$"):
                make_synthetic_model([(4, 3, spectrum)], seed=0)


class TestMakeProxyTask:
    @pytest.mark.parametrize("noise", [np.nan, np.inf, -0.1])
    def test_bad_noise_rejected(self, noise):
        model = make_synthetic_model([(6, 5, 0.6)], seed=0)
        with pytest.raises(ValidationError, match=f"finite and non-negative, got {noise}$"):
            make_proxy_task(model, [None], n_samples=8, noise=noise, seed=1)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitude_rejected_before_any_svd(self, amplitude, monkeypatch):
        model = make_synthetic_model([(6, 5, 0.6), (4, 6, 0.9)], seed=0)
        planted = [PlantedDirections((2,), (1.0,)), PlantedDirections((1, 3), (0.5, amplitude))]
        calls = count_svd_calls(monkeypatch)
        with pytest.raises(ValidationError, match=f"amplitudes must be finite, got {amplitude}$"):
            make_proxy_task(model, planted, n_samples=8, noise=0.0, seed=1)
        assert calls == {True: 0, False: 0}

    @pytest.mark.parametrize("indices", [(5, 2), (2, 5)])
    def test_amplitudes_pair_with_their_own_index(self, indices):
        model = make_synthetic_model([(8, 6, 0.7)], seed=3)
        amplitudes = {5: 0.9, 2: 0.1}
        plant = PlantedDirections(indices, tuple(amplitudes[i] for i in indices))
        task = make_proxy_task(model, [plant], n_samples=16, noise=0.0, seed=4)
        teacher = task.targets @ np.linalg.pinv(task.inputs)
        d = project_residual(decompose(model.layers[0]), teacher - model.layers[0])
        assert np.allclose(d, [0.0, 0.1, 0.0, 0.0, 0.9, 0.0], atol=1e-10)

    def test_repeated_index_rejected(self):
        model = make_synthetic_model([(8, 6, 0.7)], seed=3)
        with pytest.raises(ValidationError, match="planted index 2 is repeated$"):
            make_proxy_task(model, [PlantedDirections((2, 5, 2), (0.9, 0.3, 0.1))],
                            n_samples=16, noise=0.0, seed=4)


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
                return mse_and_grads(trial, "tanh", task.inputs, task.targets)[0]

            assert finite_difference_check(loss_of, weights[li], grads[li]) <= 1e-5

    def test_divergence_detected(self):
        model = make_synthetic_model([(8, 6, 0.7)], seed=8)
        task = make_proxy_task(model, [PlantedDirections((2,), (1.0,))],
                               n_samples=32, noise=0.0, seed=9)
        with pytest.raises(TrainingDivergedError):
            full_finetune_proxy(model, task, TrainConfig(steps=100, learning_rate=500.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_divergence_without_warnings(self):
        model = make_synthetic_model([(8, 6, 0.7)], seed=8)
        task = make_proxy_task(model, [PlantedDirections((2,), (1.0,))],
                               n_samples=32, noise=0.0, seed=9)
        with pytest.raises(TrainingDivergedError, match="diverged at step 1: inf"):
            full_finetune_proxy(model, task, TrainConfig(steps=100, learning_rate=1e308))


class TestFiniteDifferenceCheck:
    def test_quadratic(self):
        point = np.random.default_rng(12).standard_normal((5, 4))

        def f(x):
            return float(np.sum(x * x))

        # central differences are exact on quadratics; only roundoff remains
        assert finite_difference_check(f, point, 2.0 * point, 1e-3) <= 1e-8

    @pytest.mark.parametrize("analytic, error", [(0.0, 1.0), (np.nan, math.inf)],
                             ids=["zero", "nan"])
    def test_wrong_gradient_fails(self, analytic, error):
        # the gradient of sum(x*x) at ones is 2 everywhere; neither guess is skipped
        point = np.ones((2, 2))
        grad = np.full((2, 2), analytic)
        assert finite_difference_check(lambda x: float(np.sum(x * x)), point, grad) == error

    def test_bad_step_and_shape(self):
        point = np.ones((2, 2))
        with pytest.raises(ValidationError):
            finite_difference_check(lambda x: 0.0, point, point, step=0.0)
        with pytest.raises(ValidationError):
            finite_difference_check(lambda x: 0.0, point, np.ones(3))
        with pytest.raises(ValidationError, match="point contains non-finite entries$"):
            finite_difference_check(lambda x: 0.0, np.full((2, 2), np.nan), point)


def _experiment_parts(seed):
    model = make_synthetic_model([(16, 12, 0.6)], seed=seed)
    planted = [PlantedDirections(indices=(3, 7), amplitudes=(0.9, 0.7))]
    task = make_proxy_task(model, planted, n_samples=64, noise=0.02, seed=seed + 100)
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_loss_is_divergence(self):
        # the penalty gradient overflows, so the loss turns NaN rather than large
        model, task = _experiment_parts(2)
        with pytest.raises(TrainingDivergedError, match="adapter training diverged at step"):
            run_stm_experiment(model, task, StmConfig(alpha=0.5),
                               TrainConfig(steps=20, learning_rate=0.5, seed=2),
                               reg_weight=1e308)

    def test_baseline_rows_present(self):
        model, task = _experiment_parts(5)
        tc = TrainConfig(steps=80, learning_rate=0.5, seed=5)
        rep = run_stm_experiment(model, task, StmConfig(alpha=0.5), tc)
        methods = [rec["method"] for rec in rep.records]
        assert methods == ["stm", *BASELINES]
        for rec in rep.records[1:]:
            assert rec["recall"] == "na"  # scored for the selecting method only

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_one_svd_per_layer(self, monkeypatch, baseline):
        # the baseline reuses the STM layers' factors instead of decomposing again
        model = make_synthetic_model([(16, 12, 0.6), (10, 16, 0.8)], seed=7)
        planted = [PlantedDirections((3,), (0.9,)), None]
        task = make_proxy_task(model, planted, n_samples=32, noise=0.02, seed=8)
        calls = count_svd_calls(monkeypatch)
        built, build = {}, harness._baseline_adapters

        def counting_build(model, factors, ranks, method, *rest):
            before = dict(calls)
            layers = build(model, factors, ranks, method, *rest)
            built[method] = {k: calls[k] - before[k] for k in calls}
            return layers

        monkeypatch.setattr(harness, "_baseline_adapters", counting_build)
        run_stm_experiment(model, task, StmConfig(alpha=0.5),
                           TrainConfig(steps=5, learning_rate=0.5))
        assert built[baseline] == {True: 0, False: 0}
        assert calls == {True: len(model.layers), False: 0}

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_one_full_batch_pass_per_step(self, monkeypatch, baseline):
        # a full-batch pass's loss is the task loss of the weights it
        # differentiates, so S steps take S + 1 passes
        model = make_synthetic_model([(16, 12, 0.6), (10, 16, 0.8)], seed=7)
        planted = [PlantedDirections((3,), (0.9,)), None]
        task = make_proxy_task(model, planted, n_samples=32, noise=0.02, seed=8)
        passes, merges = [], Counter()
        monkeypatch.setattr(harness, "mse_and_grads",
                            lambda *args: passes.append(1) or mse_and_grads(*args))
        monkeypatch.setattr(harness, "merge",
                            lambda layer: merges.update([id(layer)]) or merge(layer))
        # holding every method's layers keeps their ids from being reused
        adapted, build = {}, harness._baseline_adapters

        def recording_build(model, factors, ranks, method, *rest):
            adapted[method] = build(model, factors, ranks, method, *rest)
            return adapted[method]

        monkeypatch.setattr(harness, "_baseline_adapters", recording_build)
        steps = 5
        run_stm_experiment(model, task, StmConfig(alpha=0.5),
                           TrainConfig(steps=steps, learning_rate=0.5))
        runs = 2 + len(BASELINES)  # the full fine-tune, then stm and every baseline
        assert len(passes) == runs * (steps + 1)
        # each adapted layer merges once per pass, then once for its update norm
        assert [merges[id(l)] for l in adapted[baseline]] == [steps + 2] * len(model.layers)
        assert list(merges.values()) == [steps + 2] * (1 + len(BASELINES)) * len(model.layers)
