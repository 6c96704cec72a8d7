"""Tests of the benchmark itself: generator, checker, tracer, self time.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench_pipeline
import checks
import inputs
from tracer import aggregate, load_spans, top_level_time

SMALL_LAYERS = [("a", 256, 256, 0.97), ("b", 320, 256, 0.98)]


def bundle_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.fixture
def stm_work(tmp_path):
    """Small bundles, their reference and one real stm-init output."""
    w_dir, dw_dir = tmp_path / "W", tmp_path / "dW"
    inputs.make_bundles(w_dir, dw_dir, seed=5, layers=SMALL_LAYERS)
    ref = checks.reference(w_dir, dw_dir, residual_sigma=False)
    (tmp_path / "reference.json").write_text(json.dumps(ref))
    workload = bench_pipeline.WORKLOADS["stm_init_mixed"]
    prepared = {"weights": str(w_dir), "residuals": str(dw_dir)}
    out = tmp_path / "out"
    cmd = bench_pipeline.run_child(
        bench_pipeline.cli_command(workload.argv(prepared, out)), out, tmp_path / "run")
    assert cmd.exit_code == 0, cmd.problems
    return tmp_path, workload, prepared, cmd


def test_generator_is_deterministic(tmp_path):
    for name, seed in (("first", 3), ("again", 3), ("other", 4)):
        inputs.make_bundles(tmp_path / name / "W", tmp_path / name / "dW", seed,
                            layers=SMALL_LAYERS)
    for bundle in ("W", "dW"):
        first = bundle_bytes(tmp_path / "first" / bundle)
        assert first == bundle_bytes(tmp_path / "again" / bundle)
        assert first != bundle_bytes(tmp_path / "other" / bundle)


@pytest.mark.parametrize("layers", [SMALL_LAYERS, inputs.LAYERS], ids=["small", "benchmark"])
def test_generated_residual_selects_planted_directions_with_margin(tmp_path, layers):
    inputs.make_bundles(tmp_path / "W", tmp_path / "dW", 0, layers=layers)
    ref = checks.reference(tmp_path / "W", tmp_path / "dW", residual_sigma=False)
    for entry in ref.values():
        proj = np.sort(entry["projection"])[::-1]
        r = entry["r"]
        assert 1 <= r < inputs.PLANTED
        # the r-th and (r+1)-th projections are separated by far more than noise
        assert proj[r - 1] - proj[r] > 10 * inputs.DW_NOISE


def test_corrupted_output_fails_the_check_and_counts_as_failed(stm_work):
    work, workload, _, clean = stm_work
    corrupt_dir = work / "corrupt"
    shutil.copytree(clean.output, corrupt_dir)
    payload = corrupt_dir / "a.W0.bin"
    values = np.fromfile(payload, dtype="<f8")
    values[17] = -values[17] + 1.0
    values.tofile(payload)
    corrupt = bench_pipeline.Command(output=corrupt_dir, stdout=clean.stdout,
                                     wall_s=1.0, peak_rss_mb=1.0, exit_code=0)

    bench_pipeline.check_outputs(workload, work, [clean, corrupt])

    assert clean.problems == []
    assert any("init residual" in p for p in corrupt.problems)
    assert bench_pipeline.count_failed([clean, corrupt]) == 1


def test_traced_run_nests_spans_and_changes_no_output(stm_work):
    work, workload, prepared, clean = stm_work
    spans_path = work / "spans.json"
    traced = bench_pipeline.traced_command(workload, prepared, work, spans_path)
    assert traced.exit_code == 0, traced.problems
    assert bench_pipeline.same_output(clean.output, traced.output)

    extra, spans = load_spans(spans_path)
    assert extra["exit_code"] == 0
    stats = aggregate(spans)
    assert stats["numpy.linalg.svd"]["calls"] == 4 * len(SMALL_LAYERS)
    assert stats["tensorio.read_bundle"]["calls"] == 2
    # decompose is reached through stm's own import of it, and nests
    parents = {(spans[p][0], name) for name, _, _, p in spans if p >= 0}
    assert ("stm.select_rank", "spectral.decompose") in parents
    assert ("spectral.decompose", "numpy.linalg.svd") in parents
    assert top_level_time(spans) <= extra["wall_s"]


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("d", 11.0, 12.5, -1),
    ]
    stats = aggregate(spans)
    assert stats["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert stats["b"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert stats["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert stats["d"]["self_s"] == 1.5
    assert top_level_time(spans) == 11.5


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    shutil.copytree(bench_pipeline.BENCH_DIR, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "bench_pipeline.py"), "--workload", "train_toy_long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
