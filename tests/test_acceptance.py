"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass line (visible with ``pytest -rA`` or ``-s``)
so the suite doubles as a checklist.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from rankadapt.cli import main
from rankadapt.eranks import entropy_rank, stable_rank
from rankadapt.harness import (
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
from rankadapt.stm import (
    StmConfig,
    maintaining_penalty,
    maintaining_penalty_grad,
    select_directions,
    split_factors,
    split_weight,
)
from rankadapt.depthloss import (
    Camera,
    DepthMap,
    LossWeights,
    Pose,
    compose_sl,
    photometric_error,
    warp,
)
from rankadapt.tensorio import write_bundle


def _report(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS: {text}")


def _random_layer_and_selection(rng, shapes):
    m, n = shapes[rng.integers(0, len(shapes))]
    k = min(m, n)
    w = rng.standard_normal((m, n))
    r = int(rng.integers(1, k + 1))
    selected = sorted(int(i) + 1 for i in rng.choice(k, size=r, replace=False))
    return w, selected


def test_criterion_01_rank_ordering_sweep():
    start = time.perf_counter()
    shapes = [(4, 4), (8, 16), (32, 32), (64, 128)]
    rng = np.random.default_rng(20240101)
    for trial in range(1000):
        m, n = shapes[trial % 4]
        sigma = np.linalg.svd(rng.standard_normal((m, n)), compute_uv=False)
        st = stable_rank(sigma)
        en = entropy_rank(sigma)
        assert st <= en + 1e-9, f"ordering violated at trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"sweep took {elapsed:.1f}s"
    _report(1, f"1000 random matrices over 4 shapes in {elapsed:.2f}s")


def test_criterion_02_effective_rank_exactness():
    for n in (2, 8, 64):
        assert entropy_rank(np.ones(n)) == pytest.approx(n, abs=1e-9)
        assert stable_rank(np.ones(n)) == pytest.approx(n, abs=1e-9)
    # independent direct evaluation: p = (2/3, 1/3), H = ln 3 - (2/3) ln 2
    expected = math.exp(math.log(3.0) - (2.0 / 3.0) * math.log(2.0))  # 1.8898815748...
    assert entropy_rank([2.0, 1.0]) == pytest.approx(expected, abs=1e-6)
    assert entropy_rank([2.0, 1.0]) == pytest.approx(1.889882, abs=1e-6)
    assert stable_rank([2.0, 1.0]) == pytest.approx(1.5, abs=1e-6)
    _report(2, "identity ranks exact for n in {2, 8, 64}; spectrum (2,1) matches")


def _hundred_random_layers():
    rng = np.random.default_rng(20240103)
    shapes = [(8, 8), (16, 8), (8, 16), (32, 16), (24, 24)]
    layers = []
    for _ in range(100):
        w, selected = _random_layer_and_selection(rng, shapes)
        layers.append((w, split_weight(w, split_factors(decompose(w), selected))))
    return layers


def test_criterion_03_init_exactness():
    for w, layer in _hundred_random_layers():
        err = np.linalg.norm(layer.w0 + layer.b @ layer.a - w)
        assert err <= 1e-10 * np.linalg.norm(w)
    _report(3, "W0 + BA reproduces W to 1e-10 relative for 100 random pairs")


def test_criterion_04_zero_penalty_at_init():
    for _, layer in _hundred_random_layers():
        assert maintaining_penalty([layer]) <= 1e-9
    w = np.diag([3.0, 2.0, 1.0])
    layer = split_weight(w, split_factors(decompose(w), {3}))
    layer.b = np.diag([0.1, 0.2, 0.5])
    layer.a = np.eye(3)
    assert abs(maintaining_penalty([layer]) - 0.7) <= 1e-12
    _report(4, "penalty zero at init for 100 pairs; hand-computed 0.7 exact")


def test_criterion_05_gradient_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(20240105)
    shapes = [(10, 7), (8, 9), (12, 6)]
    for _ in range(100):
        w, selected = _random_layer_and_selection(rng, shapes)
        layer = split_weight(w, split_factors(decompose(w), selected))
        layer.b = layer.b + 0.25 * rng.standard_normal(layer.b.shape)
        layer.a = layer.a + 0.25 * rng.standard_normal(layer.a.shape)
        grad_b, grad_a = maintaining_penalty_grad(layer)

        def pen_with(field, value):
            saved = getattr(layer, field)
            setattr(layer, field, value)
            out = maintaining_penalty([layer])
            setattr(layer, field, saved)
            return out

        assert finite_difference_check(lambda b: pen_with("b", b), layer.b, grad_b, 1e-6) <= 1e-4
        assert finite_difference_check(lambda a: pen_with("a", a), layer.a, grad_a, 1e-6) <= 1e-4

    for trial in range(100):
        model = make_synthetic_model([(6, 5, 0.6), (4, 6, 0.9)],
                                     seed=1000 + trial, activation="tanh")
        task = make_proxy_task(model, [None, None], n_samples=12, noise=0.1,
                               seed=2000 + trial)
        weights = [w + 0.05 for w in model.layers]
        _, grads = mse_and_grads(weights, "tanh", task.inputs, task.targets)
        for li in range(2):
            def loss_of(wl, li=li):
                trial_weights = [wl if j == li else weights[j] for j in range(2)]
                return mse_and_grads(trial_weights, "tanh", task.inputs, task.targets)[0]

            assert finite_difference_check(loss_of, weights[li], grads[li], 1e-6) <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0, f"gradient checks took {elapsed:.1f}s"
    _report(5, f"penalty and task gradients match finite differences ({elapsed:.1f}s)")


def test_criterion_06_planted_direction_recovery():
    planted = (3, 7)
    amplitudes = (0.9, 0.7)
    for seed in range(20):
        model = make_synthetic_model([(16, 12, 0.6)], seed=seed)
        task = make_proxy_task(model, [PlantedDirections(planted, amplitudes)],
                               n_samples=64, noise=0.02, seed=seed + 500)
        residual = full_finetune_proxy(
            model, task, TrainConfig(steps=300, learning_rate=0.5, seed=seed))[0]
        factors = decompose(model.layers[0])
        d = project_residual(factors, residual)
        off = np.delete(d, [i - 1 for i in planted])
        assert min(amplitudes) >= 10.0 * np.max(off)  # planted dominates noise
        assert select_directions(factors, residual, 2) == planted
    _report(6, "selection recall 1.0 in 20/20 seeded trials")


def _paired_trials(n_trials):
    results = []
    for seed in range(n_trials):
        model = make_synthetic_model([(16, 12, 0.6)], seed=seed)
        task = make_proxy_task(model, [PlantedDirections((3, 7), (0.9, 0.7))],
                               n_samples=64, noise=0.02, seed=seed + 300)
        cfg = StmConfig(alpha=0.5)
        tc = TrainConfig(steps=150, learning_rate=0.5, seed=seed)
        off = run_stm_experiment(model, task, cfg, tc, reg_weight=0.0).records
        on = run_stm_experiment(model, task, cfg, tc, reg_weight=1.0).records
        results.append((off, on))
    return results


def test_criterion_07_regularization_efficacy():
    start = time.perf_counter()
    for off, on in _paired_trials(10):
        drift_off = off[0]["drift"]
        drift_on = on[0]["drift"]
        assert drift_off > 0.0
        assert drift_on <= 0.5 * drift_off
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0
    _report(7, "regularized drift at most half of unregularized in 10/10 pairs")


def test_criterion_08_initialization_advantage():
    start = time.perf_counter()
    wins = 0
    for seed in range(10):
        model = make_synthetic_model([(16, 12, 0.6)], seed=seed)
        task = make_proxy_task(model, [PlantedDirections((3, 7), (0.9, 0.7))],
                               n_samples=64, noise=0.02, seed=seed + 300)
        rep = run_stm_experiment(model, task, StmConfig(alpha=0.5),
                                 TrainConfig(steps=200, learning_rate=0.5, seed=seed))
        stm_steps = rep.records[0]["steps_to_threshold"]
        zero_steps = rep.records[1]["steps_to_threshold"]
        assert stm_steps != "na"
        if zero_steps == "na" or stm_steps < zero_steps:
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 9, f"task-aware init won only {wins}/10 trials"
    assert elapsed <= 300.0, f"experiment suite took {elapsed:.1f}s"
    _report(8, f"threshold reached first in {wins}/10 trials ({elapsed:.1f}s)")


def test_criterion_09_geometry_checks():
    rng = np.random.default_rng(20240109)
    img = rng.uniform(0.0, 1.0, (12, 18, 3))
    h, w = img.shape[:2]

    scalar, pe_map = photometric_error(img, img, LossWeights())
    assert scalar == 0.0 and np.all(pe_map == 0.0)

    cam = Camera(fx=25.0, fy=27.0, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0)
    depth = DepthMap(np.full((h, w), 4.0))
    warped, in_bounds = warp(img, depth, Pose(np.eye(3), np.zeros(3)), cam)
    assert np.max(np.abs(warped - img)[in_bounds]) <= 1e-6

    # encode the source column index as intensity; bilinear sampling of a
    # linear ramp returns the exact sample coordinate, i.e. the disparity
    ramp = np.tile(np.arange(w) / (w - 1), (h, 1))[:, :, None]
    tx, d = 0.4, 5.0
    warped_ramp, ib = warp(ramp, DepthMap(np.full((h, w), d)),
                           Pose(np.eye(3), np.array([tx, 0.0, 0.0])), cam)
    us = np.tile(np.arange(w, dtype=float), (h, 1))
    measured_disparity = warped_ramp[:, :, 0] * (w - 1) - us
    expected = cam.fx * tx / d
    assert np.max(np.abs(measured_disparity[ib] - expected)) <= 1e-6
    _report(9, "photometric identity, identity-pose warp, and disparity law hold")


def test_criterion_10_supervised_composition():
    assert compose_sl(0.1, 0.2, 0.0, 0.0, LossWeights()) == 0.4
    _report(10, "2:1 supervised blend of (0.1, 0.2) is exactly 0.4")


def test_criterion_11_cli_determinism(tmp_path):
    rng = np.random.default_rng(20240111)
    weights, residuals = {}, {}
    for i in range(3):
        weights[f"layer{i}"] = rng.standard_normal((12, 9))
        residuals[f"layer{i}"] = 0.1 * rng.standard_normal((12, 9))
    write_bundle(tmp_path / "w", weights)
    write_bundle(tmp_path / "r", residuals)

    init_args = ["stm-init", "--weights", str(tmp_path / "w"),
                 "--residuals", str(tmp_path / "r"), "--alpha", "0.5"]
    assert main(init_args + ["--output", str(tmp_path / "i1")]) == 0
    assert main(init_args + ["--output", str(tmp_path / "i2")]) == 0
    files1 = {p.name: p.read_bytes() for p in sorted((tmp_path / "i1").iterdir())}
    files2 = {p.name: p.read_bytes() for p in sorted((tmp_path / "i2").iterdir())}
    assert files1 == files2

    toy_args = ["train-toy", "--seed", "7", "--steps", "80"]
    assert main(toy_args + ["--output", str(tmp_path / "t1.csv")]) == 0
    assert main(toy_args + ["--output", str(tmp_path / "t2.csv")]) == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    _report(11, "stm-init and train-toy outputs byte-identical across reruns")
