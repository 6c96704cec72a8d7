import csv
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankadapt.cli as cli
import rankadapt.errors as errors
import rankadapt.spectral as spectral
import rankadapt.tensorio as tensorio
from rankadapt.cli import _map_layers, main, spectra_layer, stm_init_layer
from rankadapt.harness import BASELINES, make_synthetic_model
from rankadapt.stm import StmConfig, StmPlan
from rankadapt.tensorio import (
    BundleEntry,
    read_bundle,
    read_entries,
    write_bundle,
    write_manifest,
)

from conftest import COMMIT_FAILURES, break_commit, count_svd_calls


def write_pair(tmp_path, names_weights, names_residuals=None):
    wdir, rdir = tmp_path / "w", tmp_path / "r"
    write_bundle(wdir, names_weights)
    write_bundle(rdir, names_residuals or {})
    return str(wdir), str(rdir)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


class TestSpectra:
    def test_identity_ranks(self, tmp_path):
        wdir, _ = write_pair(tmp_path, {"eye": np.eye(4)})
        out = tmp_path / "report.csv"
        assert main(["spectra", "--weights", wdir, "--output", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert float(rows[0]["entropy_rank"]) == pytest.approx(4.0, abs=1e-9)
        assert float(rows[0]["stable_rank"]) == pytest.approx(4.0, abs=1e-9)

    def test_zero_residual_projection_column(self, tmp_path):
        w = np.diag([3.0, 2.0, 1.0])
        wdir, rdir = write_pair(tmp_path, {"w": w}, {"w": np.zeros((3, 3))})
        out = tmp_path / "report.csv"
        assert main(["spectra", "--weights", wdir, "--residuals", rdir,
                     "--output", str(out)]) == 0
        rows = read_csv(out)
        assert all(float(row["projection"]) == 0.0 for row in rows)
        assert all(row["residual_entropy_rank"] == "na" for row in rows)

    def test_depth_trend_in_emitted_csv(self, tmp_path):
        model = make_synthetic_model([(10, 10, 0.3), (10, 10, 0.9)], seed=5)
        wdir, _ = write_pair(tmp_path, {"shallow": model.layers[0],
                                        "deep": model.layers[1]})
        out = tmp_path / "report.csv"
        assert main(["spectra", "--weights", wdir, "--output", str(out)]) == 0
        by_name = {}
        for row in read_csv(out):
            by_name[row["name"]] = (float(row["entropy_rank"]), float(row["stable_rank"]))
        assert by_name["deep"][0] > by_name["shallow"][0]
        assert by_name["deep"][1] > by_name["shallow"][1]

    def test_name_mismatch_exits_2(self, tmp_path):
        wdir, rdir = write_pair(tmp_path, {"a": np.eye(2)}, {"b": np.eye(2)})
        assert main(["spectra", "--weights", wdir, "--residuals", rdir,
                     "--output", str(tmp_path / "x.csv")]) == 2

    def test_missing_bundle_exits_1(self, tmp_path):
        assert main(["spectra", "--weights", str(tmp_path / "nope"),
                     "--output", str(tmp_path / "x.csv")]) == 1

    def test_manifest_path_outside_bundle_exits_1(self, tmp_path):
        (tmp_path / "secret.bin").write_bytes(np.zeros(4).tobytes())
        wdir = tmp_path / "w"
        wdir.mkdir()
        manifest = [{"name": "w", "rows": 2, "cols": 2, "dtype": "f64",
                     "data": "../secret.bin"}]
        (wdir / "manifest.json").write_text(json.dumps(manifest))
        assert main(["spectra", "--weights", str(wdir),
                     "--output", str(tmp_path / "x.csv")]) == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("manifest", [
        b'[{"name": "w", "rows": 1e999, "cols": 2, "dtype": "f64", "data": "w.bin"}]',
        b'[{"name": "w", "rows": 2, "cols": 2, "dtype": [], "data": "w.bin"}]',
        b'[{"name": "w", "rows": 2, "cols": 2, "dtype": "f64", "data": "w\\u0000.bin"}]',
        b'[{"name": "w\xff", "rows": 2, "cols": 2, "dtype": "f64", "data": "w.bin"}]',
        # read as 1 x 4 before, which matches the payload, and computed on
        b'[{"name": "w", "rows": 1.9, "cols": 4, "dtype": "f64", "data": "w.bin"}]',
    ], ids=["rows_inf", "dtype_list", "data_nul", "not_utf8", "rows_float"])
    def test_bad_manifest_gives_one_error_line(self, tmp_path, capsys, manifest):
        wdir = tmp_path / "w"
        wdir.mkdir()
        (wdir / "w.bin").write_bytes(np.zeros(4).tobytes())
        (wdir / "manifest.json").write_bytes(manifest)
        out = tmp_path / "x.csv"
        assert main(["spectra", "--weights", str(wdir), "--output", str(out)]) in (1, 2)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_json_format(self, tmp_path):
        wdir, _ = write_pair(tmp_path, {"eye": np.eye(2)})
        out = tmp_path / "report.json"
        assert main(["spectra", "--weights", wdir, "--output", str(out),
                     "--format", "json"]) == 0
        loaded = json.loads(out.read_text())
        assert loaded["kind"] == "spectra"
        assert len(loaded["records"]) == 2


class TestStmInit:
    def test_worked_example_plan(self, tmp_path):
        w = np.diag([3.0, 2.0, 1.0])
        dw = np.diag([0.0, 0.5, 0.9])
        wdir, rdir = write_pair(tmp_path, {"layer": w}, {"layer": dw})
        out = tmp_path / "adapters"
        # entropy rank of (3,2,1) is ~2.75; alpha 0.73 rounds to r=2 once the
        # cap is lifted to the full spectrum
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.73", "--max-rank-fraction", "1.0",
                     "--output", str(out)]) == 0
        plan = json.loads((out / "layer.plan.json").read_text())
        assert plan["r"] == 2
        assert plan["selected"] == [2, 3]
        bundle = read_bundle(out)
        w0, b, a = bundle["layer.W0"], bundle["layer.B"], bundle["layer.A"]
        assert np.allclose(w0 + b @ a, w, atol=1e-10)

    def test_rerun_byte_identical(self, tmp_path):
        rng = np.random.default_rng(21)
        w = rng.standard_normal((10, 8))
        dw = 0.1 * rng.standard_normal((10, 8))
        wdir, rdir = write_pair(tmp_path, {"w": w}, {"w": dw})
        args = ["stm-init", "--weights", wdir, "--residuals", rdir, "--alpha", "0.5"]
        assert main(args + ["--output", str(tmp_path / "o1")]) == 0
        assert main(args + ["--output", str(tmp_path / "o2")]) == 0
        assert dir_bytes(tmp_path / "o1") == dir_bytes(tmp_path / "o2")

    def test_stack_param_count_printed(self, tmp_path, capsys):
        model = make_synthetic_model([(12, 10, 0.5)] * 12, seed=6)
        weights = {f"layer{i:02d}": w for i, w in enumerate(model.layers)}
        residuals = {name: 0.05 * np.ones_like(w) for name, w in weights.items()}
        wdir, rdir = write_pair(tmp_path, weights, residuals)
        out = tmp_path / "adapters"
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.4", "--output", str(out)]) == 0
        printed = int(capsys.readouterr().out.split("trainable parameters:")[1].split()[0])
        bundle = read_bundle(out)
        total = sum(bundle[f"{n}.B"].size + bundle[f"{n}.A"].size for n in weights)
        assert printed == total

    def test_non_finite_residual_exits_2(self, tmp_path):
        rng = np.random.default_rng(4)
        dw = 0.1 * rng.standard_normal((8, 6))
        dw[5, 2] = np.nan
        wdir, rdir = write_pair(tmp_path, {"w": rng.standard_normal((8, 6))}, {"w": dw})
        out = tmp_path / "o"
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.5", "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("failure", COMMIT_FAILURES)
    def test_failed_commit_keeps_old_bundle(self, tmp_path, monkeypatch, failure):
        rng = np.random.default_rng(9)
        shapes = {"l0": (10, 8), "l1": (8, 12)}
        wdir, rdir = write_pair(
            tmp_path,
            {k: rng.standard_normal(s) for k, s in shapes.items()},
            {k: 0.1 * rng.standard_normal(s) for k, s in shapes.items()})
        args = ["stm-init", "--weights", wdir, "--residuals", rdir, "--alpha", "0.5"]
        out = tmp_path / "out"
        # an earlier, valid bundle in the output directory
        assert main(args + ["--max-rank-fraction", "0.25", "--output", str(out)]) == 0
        before = dir_bytes(out)

        break_commit(monkeypatch, failure)
        assert main(args + ["--output", str(out)]) == 1
        monkeypatch.undo()
        assert dir_bytes(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "r", "w"]

        assert main(args + ["--output", str(out)]) == 0
        assert main(args + ["--output", str(tmp_path / "fresh")]) == 0
        assert dir_bytes(out) == dir_bytes(tmp_path / "fresh")

    def test_rerun_with_fewer_layers_leaves_no_stale_files(self, tmp_path):
        rng = np.random.default_rng(10)
        weights = {k: rng.standard_normal((8, 6)) for k in ("a", "b")}
        residuals = {k: 0.1 * rng.standard_normal((8, 6)) for k in weights}
        out = tmp_path / "out"
        for names in (("a", "b"), ("a",)):
            run = tmp_path / "-".join(names)
            run.mkdir()
            wdir, rdir = write_pair(run, {k: weights[k] for k in names},
                                    {k: residuals[k] for k in names})
            assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                         "--alpha", "0.5", "--output", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "a.A.bin", "a.B.bin", "a.W0.bin", "a.plan.json", "manifest.json"]
        assert list(read_bundle(out)) == ["a.W0", "a.B", "a.A"]
        # the replaced bundle and the staging directory are gone too
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "a-b", "out"]

    def test_non_bundle_output_exits_2_untouched(self, tmp_path, capsys):
        wdir, rdir = write_pair(tmp_path, {"w": np.eye(3)}, {"w": np.ones((3, 3))})
        out = tmp_path / "notes"
        out.mkdir()
        (out / "todo.txt").write_text("keep me\n")
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.5", "--output", str(out)]) == 2
        assert capsys.readouterr().err.endswith("holds no bundle; not replacing it\n")
        assert dir_bytes(out) == {"todo.txt": b"keep me\n"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes", "r", "w"]

    def test_regular_file_output_exits_2_untouched(self, tmp_path, capsys):
        wdir, rdir = write_pair(tmp_path, {"w": np.eye(3)}, {"w": np.ones((3, 3))})
        out = tmp_path / "notes.txt"
        out.write_text("keep me\n")
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.5", "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out} is not a directory; not replacing it\n"
        assert out.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt", "r", "w"]

    def test_overflowing_alpha_takes_the_cap(self, tmp_path):
        rng = np.random.default_rng(8)
        wdir, rdir = write_pair(tmp_path, {"w": rng.standard_normal((10, 8))},
                                {"w": 0.1 * rng.standard_normal((10, 8))})
        out = tmp_path / "o"
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "1e308", "--output", str(out)]) == 0
        assert json.loads((out / "w.plan.json").read_text())["r"] == 4  # floor(0.5 * K)

    @pytest.mark.parametrize("bundle", ["w", "r"])
    def test_input_bundle_as_output_exits_2(self, tmp_path, capsys, bundle):
        wdir, rdir = write_pair(tmp_path, {"w": np.eye(3)}, {"w": np.ones((3, 3))})
        before = dir_bytes(tmp_path / bundle)
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir, "--alpha", "0.5",
                     "--output", str(tmp_path / "r" / ".." / bundle)]) == 2
        assert capsys.readouterr().err == (
            "error: --output must not be the weight or residual bundle\n")
        assert dir_bytes(tmp_path / bundle) == before

    def test_residual_removed_after_validation_exits_1(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(3)
        wdir, rdir = write_pair(tmp_path, {k: rng.standard_normal((6, 5)) for k in ("a", "b")},
                                {k: 0.1 * rng.standard_normal((6, 5)) for k in ("a", "b")})
        layer_entries = cli._layer_entries

        def remove_after_validation(*args):
            layers = layer_entries(*args)
            layers["b"][1].path.unlink()
            return layers

        monkeypatch.setattr(cli, "_layer_entries", remove_after_validation)
        out = tmp_path / "o"
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.5", "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: b: missing data file ")
        assert not out.exists()

    def test_missing_residual_exits_2(self, tmp_path):
        wdir, rdir = write_pair(tmp_path, {"a": np.eye(3), "b": np.eye(3)},
                                {"a": np.zeros((3, 3))})
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.5", "--output", str(tmp_path / "o")]) == 2


class TestSvdBudget:
    """Each layer is decomposed once; a residual spectrum never needs vectors.

    The CLI runs its per-layer jobs in worker processes, out of reach of the
    counter, so the jobs are called here in-process for every layer.
    """

    SHAPES = {"l0": (12, 8), "l1": (8, 12), "l2": (10, 10)}

    def bundles(self, tmp_path):
        rng = np.random.default_rng(8)
        weights = {k: rng.standard_normal(s) for k, s in self.SHAPES.items()}
        residuals = {k: 0.1 * rng.standard_normal(s) for k, s in self.SHAPES.items()}
        return write_pair(tmp_path, weights, residuals)

    def entries(self, tmp_path):
        """The bundles' (weights, residuals) entries, as the CLI hands them to its jobs."""
        wdir, rdir = self.bundles(tmp_path)
        return wdir, rdir, read_entries(wdir), read_entries(rdir)

    def test_stm_init_one_svd_per_layer(self, tmp_path, monkeypatch):
        wdir, rdir, w, r = self.entries(tmp_path)
        out = tmp_path / "o"
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.5", "--output", str(out)]) == 0
        written = read_bundle(out)
        job_dir = tmp_path / "job"
        job_dir.mkdir()
        calls = count_svd_calls(monkeypatch)
        records, counts = [], []
        for name in self.SHAPES:
            layer_records, count = stm_init_layer(name, w[name], r[name], StmConfig(alpha=0.5),
                                                  job_dir)
            records += layer_records
            counts.append(count)
        assert calls == {True: len(self.SHAPES), False: 0}
        write_manifest(job_dir, records)
        job = read_bundle(job_dir)
        for name, count in zip(self.SHAPES, counts):
            b, a = job[f"{name}.B"], job[f"{name}.A"]
            assert np.allclose(b @ a, written[f"{name}.B"] @ written[f"{name}.A"])
            assert count == b.size + a.size
        # the jobs wrote every file of the CLI's output, byte for byte
        assert dir_bytes(job_dir) == dir_bytes(out)

    def test_stm_init_job_returns_no_matrix(self, tmp_path):
        _, _, w, r = self.entries(tmp_path)
        records, count = stm_init_layer("l0", w["l0"], r["l0"], StmConfig(alpha=0.5), tmp_path)
        assert [r["name"] for r in records] == ["l0.W0", "l0.B", "l0.A"]
        values = [v for r in records for v in r.values()] + [count]
        assert not any(isinstance(v, np.ndarray) for v in values)
        assert all(type(v) in (str, int, float, tuple) for v in values)
        plan = StmPlan.from_dict(json.loads((tmp_path / "l0.plan.json").read_text()))
        assert count == plan.r * sum(self.SHAPES["l0"])

    def spectra_svd_calls(self, tmp_path, monkeypatch, residuals: bool) -> dict:
        """SVD calls of every spectra job, run in-process after the CLI."""
        wdir, rdir, w, r = self.entries(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["spectra", "--weights", wdir, *(["--residuals", rdir] if residuals else []),
                     "--output", str(out)]) == 0
        calls = count_svd_calls(monkeypatch)
        records = [rec for name in sorted(self.SHAPES)
                   for rec in spectra_layer(name, w[name], r[name] if residuals else None, 1.0)]
        assert [r["name"] for r in records] == [row["name"] for row in read_csv(out)]
        return calls

    def test_spectra_residuals_one_svd_each(self, tmp_path, monkeypatch):
        calls = self.spectra_svd_calls(tmp_path, monkeypatch, residuals=True)
        assert calls == {True: len(self.SHAPES), False: len(self.SHAPES)}

    def test_plain_spectra_one_svd_without_vectors(self, tmp_path, monkeypatch):
        calls = self.spectra_svd_calls(tmp_path, monkeypatch, residuals=False)
        assert calls == {True: 0, False: len(self.SHAPES)}

    def test_jobs_read_no_manifest(self, tmp_path, monkeypatch):
        _, _, w, r = self.entries(tmp_path)
        read_manifest = tensorio._read_manifest
        reads = []
        monkeypatch.setattr(tensorio, "_read_manifest",
                            lambda root: reads.append(root) or read_manifest(root))
        for name in self.SHAPES:
            stm_init_layer(name, w[name], r[name], StmConfig(alpha=0.5), tmp_path)
            spectra_layer(name, w[name], r[name], 1.0)
            spectra_layer(name, w[name], None, 1.0)
        assert reads == []
        # the counter does see a read
        read_entries(tmp_path / "w")
        assert len(reads) == 1


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def exit_worker(name, weight, residual):
    """A layer job that ends its worker process before it sends a result."""
    os._exit(3)


def cli_env() -> dict:
    """The environment for a child process that imports rankadapt like this one."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


class TestLayerWorkers:
    """Layers run in worker processes; outputs and errors follow layer-name order."""

    @pytest.mark.parametrize("command", [
        ["stm-init", "--alpha", "0.5", "--output"],
        ["spectra", "--output"],
    ])
    def test_first_failing_layer_decides(self, tmp_path, capsys, command):
        rng = np.random.default_rng(5)
        names = ("block1.mlp", "block2.mlp", "block3.mlp")
        weights = {n: rng.standard_normal((8, 6)) for n in names}
        residuals = {n: 0.1 * rng.standard_normal((8, 6)) for n in weights}
        residuals["block2.mlp"][1, 1] = np.nan
        residuals["block3.mlp"][0, 0] = np.inf
        wdir, rdir = write_pair(tmp_path, weights, residuals)
        out = tmp_path / "out"
        assert main([command[0], "--weights", wdir, "--residuals", rdir,
                     *command[1:], str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: block2.mlp: residual contains non-finite entries\n"
        # neither the output nor a staging directory is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]
        assert multiprocessing.active_children() == []

    def test_worker_death_is_an_os_error(self):
        layers = {"l0": (BundleEntry(Path("unread.bin"), np.dtype("<f8"), (1, 1)), None)}
        with pytest.raises(OSError, match="worker process ended abruptly"):
            _map_layers(exit_worker, layers)
        assert multiprocessing.active_children() == []

    def test_worker_loads_only_its_modules(self, tmp_path):
        rng = np.random.default_rng(6)
        wdir, rdir = write_pair(tmp_path, {"l0": rng.standard_normal((8, 6))},
                                {"l0": 0.1 * rng.standard_normal((8, 6))})
        w, r = read_entries(wdir)["l0"], read_entries(rdir)["l0"]
        out = tmp_path / "out"
        out.mkdir()
        # the jobs as a worker receives them: pickled with their entries and config
        jobs = pickle.dumps([(stm_init_layer, ("l0", w, r, StmConfig(alpha=0.5), str(out))),
                             (spectra_layer, ("l0", w, r, 1.0))])
        script = ("import pickle, sys; jobs = pickle.load(sys.stdin.buffer); "
                  "[job(*args) for job, args in jobs]; "
                  "print(' '.join(m for m in sys.modules if m.startswith('rankadapt')))")
        proc = subprocess.run([sys.executable, "-c", script], input=jobs, env=cli_env(),
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.decode().split())
        assert {"rankadapt.cli", "rankadapt.stm", "rankadapt.tensorio"} <= loaded
        assert not loaded & {"rankadapt.harness", "rankadapt.depthloss"}
        assert (out / "l0.plan.json").exists()

    def test_more_layers_than_open_file_limit(self, tmp_path):
        names = [f"layer{i:03d}" for i in range(80)]
        wdir, rdir = write_pair(tmp_path, {n: np.eye(3) for n in names},
                                {n: np.ones((3, 3)) for n in names})
        script = ("import resource, sys; from rankadapt.cli import main; "
                  "resource.setrlimit(resource.RLIMIT_NOFILE, (64, 64)); "
                  "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "spectra", "--weights", wdir, "--residuals", rdir,
             "--output", str(tmp_path / "report.csv")],
            env=cli_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(read_csv(tmp_path / "report.csv")) == 3 * len(names)

    def test_output_independent_of_blas_threads(self, tmp_path):
        # large enough for multithreaded BLAS to change the last bits of an
        # SVD computed in the calling process
        rng = np.random.default_rng(13)
        shapes = {"a": (300, 200), "b": (200, 300)}
        wdir, rdir = write_pair(
            tmp_path,
            {k: rng.standard_normal(s) for k, s in shapes.items()},
            {k: 0.1 * rng.standard_normal(s) for k, s in shapes.items()})
        base = {k: v for k, v in cli_env().items() if k not in THREAD_VARS}
        outputs = []
        for threads in (None, "1", "2"):
            env = dict(base)
            if threads is not None:
                env.update(dict.fromkeys(THREAD_VARS, threads))
            run = tmp_path / f"threads-{threads}"
            for argv in (["stm-init", "--alpha", "0.5", "--output", str(run / "adapters")],
                         ["spectra", "--output", str(run / "spectra.csv")]):
                proc = subprocess.run(
                    [sys.executable, "-m", "rankadapt.cli", argv[0], "--weights", wdir,
                     "--residuals", rdir, *argv[1:]],
                    env=env, capture_output=True, timeout=120, check=True)
                (run / f"{argv[0]}.stdout").write_bytes(proc.stdout)
            outputs.append({str(p.relative_to(run)): p.read_bytes()
                            for p in sorted(run.rglob("*")) if p.is_file()})
        assert len(outputs[0]) == 2 + 1 + 3 * 2 + 2 + 1  # stdouts, manifest, bins, plans, csv
        assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("argv", [
    ["stm-init", "--alpha", "nan"],
    ["stm-init", "--alpha", "inf"],
    ["stm-init", "--alpha", "0.5", "--gamma", "nan"],
    ["spectra", "--gamma", "nan"],
    ["spectra", "--gamma", "inf"],
    ["spectra", "--gamma", "0"],
    ["train-toy", "--reg-weight", "nan"],
    ["train-toy", "--reg-weight", "inf"],
    ["train-toy", "--learning-rate", "nan"],
], ids="_".join)
def test_non_finite_flag_exits_2(tmp_path, capsys, argv):
    rng = np.random.default_rng(2)
    wdir, rdir = write_pair(tmp_path, {"w": rng.standard_normal((6, 5))},
                            {"w": 0.1 * rng.standard_normal((6, 5))})
    bundles = [] if argv[0] == "train-toy" else ["--weights", wdir, "--residuals", rdir]
    assert main([*argv, *bundles, "--output", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    if argv[0] == "spectra":  # rejected before any layer runs, so no layer prefix
        assert captured.err == f"error: gamma must be positive and finite, got {float(argv[2])}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]


class TestRejectedBeforeWorkers:
    """Errors the manifests already decide end a command before any layer runs."""

    @pytest.fixture(autouse=True)
    def no_workers(self, monkeypatch):
        def start_workers(*args):
            raise AssertionError("a layer reached the workers")

        monkeypatch.setattr(cli, "_map_layers", start_workers)

    @pytest.mark.parametrize("command", [["stm-init", "--alpha", "0.5"], ["spectra"]],
                             ids=lambda c: c[0])
    def test_residual_shape_mismatch_exits_2(self, tmp_path, capsys, command):
        rng = np.random.default_rng(11)
        # manifest order c, b, a; both c and b mismatch, and b comes first by name
        weights = {k: rng.standard_normal((6, 4)) for k in ("c", "b", "a")}
        residuals = {"c": np.zeros((6, 5)), "b": np.zeros((4, 6)), "a": np.zeros((6, 4))}
        wdir, rdir = write_pair(tmp_path, weights, residuals)
        assert main([command[0], "--weights", wdir, "--residuals", rdir, *command[1:],
                     "--output", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: b: residual shape (4, 6) does not match factors (6, 4)\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]

    def test_infeasible_rank_cap_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        # a 1 x N bias has rank cap floor(0.5 * 1) = 0 below min_rank 1
        shapes = {"proj": (8, 6), "z.bias": (1, 4), "bias": (1, 8)}
        wdir, rdir = write_pair(tmp_path, {k: rng.standard_normal(s) for k, s in shapes.items()},
                                {k: rng.standard_normal(s) for k, s in shapes.items()})
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir, "--alpha", "0.5",
                     "--output", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: bias: min_rank 1 exceeds rank cap 0 for K=1\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]


@pytest.mark.parametrize("command", ["verify", "train-toy"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    assert main([command, "--seed", "-1", "--output", str(tmp_path / "x.csv")]
                if command == "train-toy" else [command, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer, got -1" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# the exit-code contract, by error class; every class in rankadapt.errors is listed
EXIT_CODES = {
    "RankadaptError": 1,
    "BundleNotFoundError": 1,
    "BundleCorruptionError": 1,
    "OSError": 1,
    "ValidationError": 2,
    "DegenerateSpectrumError": 2,
    "UnsupportedFormatError": 2,
    "NumericError": 3,
    "TrainingDivergedError": 4,
}


def test_exit_code_table_names_every_error_class():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.RankadaptError)}
    assert classes == set(EXIT_CODES) - {"OSError"}


@pytest.mark.parametrize("error", sorted(EXIT_CODES))
def test_exit_code_table(monkeypatch, capsys, error):
    error_class = OSError if error == "OSError" else getattr(errors, error)

    def failing_command(args):
        raise error_class("probe failure")

    monkeypatch.setattr(cli, "cmd_verify", failing_command)
    assert main(["verify"]) == EXIT_CODES[error]
    captured = capsys.readouterr()
    assert captured.err == "error: probe failure\n"  # one line, no traceback
    assert captured.out == ""


def test_key_error_is_not_exit_2(monkeypatch):
    # exit 2 is for validation; no package code raises KeyError on purpose
    def broken_command(args):
        raise KeyError("layer.W0")

    monkeypatch.setattr(cli, "cmd_verify", broken_command)
    with pytest.raises(KeyError):
        main(["verify"])


@pytest.mark.parametrize("code", [
    "import rankadapt",
    "import rankadapt.cli",
    "from rankadapt.cli import main; assert main(['--help']) == 0",
    "from rankadapt.cli import main; assert main(['stm-init']) == 2",
], ids=["import_package", "import_cli", "help", "argument_error"])
def test_start_up_loads_no_numpy(code):
    script = (f"import sys; {code}; "
              "print(' '.join(m for m in sys.modules if m == 'numpy' or 'rankadapt' in m))")
    proc = subprocess.run([sys.executable, "-c", script], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert loaded <= {"rankadapt", "rankadapt.cli", "rankadapt.errors"}


def test_baseline_choices_are_the_harness_baselines():
    # the parser lists them itself, so that building it imports no harness
    assert cli._BASELINES == BASELINES


class TestVerify:
    def test_default_sweep_passes(self):
        assert main(["verify"]) == 0  # default 1000 rank-ordering trials

    def test_injected_fault_exits_3(self):
        assert main(["verify", "--trials", "8", "--inject-fault"]) == 3

    def test_zero_trials_exits_2(self):
        assert main(["verify", "--trials", "0"]) == 2

    def test_one_decomposition_per_sweep_layer(self, monkeypatch):
        decompose = spectral.decompose
        shapes = []
        monkeypatch.setattr(spectral, "decompose",
                            lambda w: shapes.append(w.shape) or decompose(w))
        assert main(["verify", "--trials", "1"]) == 0  # the rank ordering sweep decomposes none
        assert len(shapes) == 100 + 25  # the init sweep and the penalty gradient sweep


class TestTrainToy:
    def test_default_schema(self, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(["train-toy", "--seed", "7", "--output", str(out)]) == 0
        rows = read_csv(out)
        assert [row["method"] for row in rows] == ["stm", "zero_init_lora"]
        for row in rows:
            for col in ("final_loss", "drift", "recall", "steps_to_threshold"):
                assert row[col] != ""
        assert float(rows[0]["recall"]) == 1.0
        assert rows[1]["recall"] == "na"

    def test_regularization_lowers_drift(self, tmp_path):
        out0, out1 = tmp_path / "r0.csv", tmp_path / "r1.csv"
        base = ["train-toy", "--seed", "3", "--steps", "120"]
        assert main(base + ["--reg-weight", "0", "--output", str(out0)]) == 0
        assert main(base + ["--reg-weight", "1", "--output", str(out1)]) == 0
        drift0 = float(read_csv(out0)[0]["drift"])
        drift1 = float(read_csv(out1)[0]["drift"])
        assert drift1 < drift0

    def test_random_subset_baseline_recall_na(self, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(["train-toy", "--baseline", "random_subset_lora",
                     "--output", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0]["method"] == "stm" and rows[0]["recall"] != "na"
        assert rows[1]["method"] == "random_subset_lora" and rows[1]["recall"] == "na"

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["train-toy", "--seed", "11", "--steps", "60"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_overflowing_alpha_exits_0(self, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(["train-toy", "--alpha", "1e308", "--steps", "20",
                     "--output", str(out)]) == 0
        assert [row["method"] for row in read_csv(out)] == ["stm", "zero_init_lora"]

    def test_divergence_exits_4(self, tmp_path):
        assert main(["train-toy", "--learning-rate", "1e6",
                     "--output", str(tmp_path / "x.csv")]) == 4

    def test_nan_loss_exits_4(self, tmp_path):
        # in a child process, so numpy's RuntimeWarnings would reach the real stderr
        proc = subprocess.run(
            [sys.executable, "-m", "rankadapt.cli", "train-toy", "--reg-weight", "1e308",
             "--output", "m.csv"],
            cwd=tmp_path, env=cli_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: adapter training diverged at step ")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []
