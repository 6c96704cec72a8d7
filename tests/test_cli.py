import csv
import ctypes
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rankadapt.adapter as adapter
import rankadapt.cli as cli
import rankadapt.eranks as eranks
import rankadapt.errors as errors
import rankadapt.harness as harness
import rankadapt.spectral as spectral
import rankadapt.stm as stm
import rankadapt.tensorio as tensorio
from rankadapt.cli import _map_layers, main, spectra_layer, stm_init_layer
from rankadapt.harness import make_synthetic_model
from rankadapt.stm import StmConfig, StmPlan
from rankadapt.tensorio import (
    BundleEntry,
    read_bundle,
    read_entries,
    write_bundle,
    write_entry,
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
    """Every file under ``path``, by its path relative to ``path``."""
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(Path(path).rglob("*")) if p.is_file()}


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
        assert main(["spectra", "--weights", wdir, "--output", str(out)]) == 0
        loaded = json.loads(out.read_text())
        assert loaded["kind"] == "spectra"
        assert len(loaded["records"]) == 2

    def test_report_through_a_symlink_replaces_its_target(self, tmp_path):
        wdir, _ = write_pair(tmp_path, {"eye": np.eye(3)})
        (tmp_path / "runs").mkdir()
        link = tmp_path / "latest.csv"
        link.symlink_to(Path("runs") / "report.csv")
        direct = tmp_path / "direct.csv"
        assert main(["spectra", "--weights", wdir, "--output", str(direct)]) == 0
        for _ in range(2):  # a new target, then the old one replaced
            assert main(["spectra", "--weights", wdir, "--output", str(link)]) == 0
            assert os.readlink(link) == str(Path("runs") / "report.csv")
            assert (tmp_path / "runs" / "report.csv").read_bytes() == direct.read_bytes()
        assert [p.name for p in (tmp_path / "runs").iterdir()] == ["report.csv"]


class TestStmInit:
    def test_worked_example_plan(self, tmp_path):
        w = np.diag([3.0, 2.0, 1.0, 0.5, 0.25, 0.125])
        dw = np.diag([0.0, 0.5, 0.9, 0.0, 0.0, 0.0])
        wdir, rdir = write_pair(tmp_path, {"layer": w}, {"layer": dw})
        out = tmp_path / "adapters"
        # entropy rank of (3,2,1,1/2,1/4,1/8) is ~4.00; alpha 0.5 rounds to
        # r=2, below the cap floor(6/2)=3
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.5", "--output", str(out)]) == 0
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
        inputs = ["stm-init", "--weights", wdir, "--residuals", rdir]
        args = inputs + ["--alpha", "0.5"]
        out = tmp_path / "out"
        # an earlier, valid bundle of smaller adapters in the output directory
        assert main(inputs + ["--alpha", "0.1", "--output", str(out)]) == 0
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

    def test_bundle_through_a_symlink_replaces_its_target(self, tmp_path):
        wdir, rdir = write_pair(tmp_path, {"w": np.eye(3)}, {"w": np.ones((3, 3))})
        link = tmp_path / "latest"
        link.symlink_to("run")
        args = ["stm-init", "--weights", wdir, "--residuals", rdir, "--alpha", "0.5"]
        assert main(args + ["--output", str(tmp_path / "direct")]) == 0
        for _ in range(2):  # a new target, then the old one replaced
            assert main(args + ["--output", str(link)]) == 0
            assert os.readlink(link) == "run"
            assert dir_bytes(tmp_path / "run") == dir_bytes(tmp_path / "direct")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["direct", "latest", "r", "run", "w"]

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
            "error: --output must not be or hold a file of the weight or residual bundle\n")
        assert dir_bytes(tmp_path / bundle) == before

    def test_residual_removed_after_validation_exits_1(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(3)
        wdir, rdir = write_pair(tmp_path, {k: rng.standard_normal((6, 5)) for k in ("a", "b")},
                                {k: 0.1 * rng.standard_normal((6, 5)) for k in ("a", "b")})
        layer_entries = cli._layer_entries

        def remove_after_validation(*args):
            layers, inputs = layer_entries(*args)
            layers["b"][1].path.unlink()
            return layers, inputs

        monkeypatch.setattr(cli, "_layer_entries", remove_after_validation)
        out = tmp_path / "o"
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.5", "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: b: missing data file ")
        assert not out.exists()

    def test_every_stm_flag_reaches_the_plan(self, tmp_path):
        rng = np.random.default_rng(23)
        shapes = {"attn": (16, 16), "mlp.down": (10, 24), "mlp.up": (24, 10)}
        weights = {k: rng.standard_normal(s) for k, s in shapes.items()}
        weights["attn"] = weights["attn"].astype(np.float32)
        residuals = {k: 0.1 * rng.standard_normal(s) for k, s in shapes.items()}
        wdir, rdir = write_pair(tmp_path, weights, residuals)
        flags = {"alpha": 0.37}
        out = tmp_path / "adapters"
        argv = [arg for field, value in flags.items()
                for arg in ("--" + field.replace("_", "-"), str(value))]
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir, *argv,
                     "--output", str(out)]) == 0
        stored_weights, stored_residuals = read_bundle(wdir), read_bundle(rdir)
        for name, shape in shapes.items():
            record = json.loads((out / f"{name}.plan.json").read_text())
            assert record["config"] == flags
            w = np.asarray(stored_weights[name], dtype=np.float64)
            f = spectral.decompose(w)
            r = stm.select_rank(f.sigma, StmConfig(**flags))
            selected = stm.select_directions(f, stored_residuals[name], r)
            expected = stm.split_factors(f, selected).plan
            assert StmPlan.from_dict(record) == expected
            assert 1 <= expected.r <= min(shape) // 2

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
                   for rec in spectra_layer(name, w[name], r[name] if residuals else None)]
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
            spectra_layer(name, w[name], r[name])
            spectra_layer(name, w[name], None)
        assert reads == []
        # the counter does see a read
        read_entries(tmp_path / "w")
        assert len(reads) == 1


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def exit_worker(name, weight, residual):
    """A layer job that ends its worker process before it sends a result."""
    os._exit(3)


def permission_worker(name, weight, residual, *args):
    """A layer job whose file access is refused, at a path that does not name its layer."""
    raise PermissionError(13, "Permission denied", "/bundle/data.bin")


LARGE_LAYER = (3072, 768)  # the shape of a ViT-B MLP weight


def env_worker(name, weight, residual):
    """A layer job that returns what its worker sees of the variables ``_WORKER_ENV`` sets."""
    return {var: os.environ.get(var) for var in cli._WORKER_ENV}


class Mallinfo2(ctypes.Structure):
    """glibc's ``struct mallinfo2``; ``hblks`` counts the blocks malloc has mapped."""

    _fields_ = [(f, ctypes.c_size_t) for f in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                                               "usmblks", "fsmblks", "uordblks", "fordblks",
                                               "keepcost")]


def glibc_mallinfo2():
    """glibc's ``mallinfo2``, or None where the C library has none."""
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError):
        return None
    fn.restype = Mallinfo2
    return fn


def signal_mask_worker(name, weight, residual):
    """A layer job that reports whether its worker blocks SIGINT and SIGTERM."""
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    return signal.SIGINT in blocked, signal.SIGTERM in blocked


def sleeping_worker(name, weight, residual, pid_dir):
    """A layer job that records its worker's pid in ``pid_dir``, then sleeps."""
    (Path(pid_dir) / str(os.getpid())).touch()
    time.sleep(60)


def mmap_threshold_worker(name, weight, residual):
    """Whether a 512 KiB block malloc'd after a 1 MiB one is freed gets a map of its own.

    glibc maps a block above its mmap threshold, and freeing a mapped block
    raises the threshold to that block's size unless the threshold was set.
    """
    libc, mallinfo2 = ctypes.CDLL(None), glibc_mallinfo2()
    libc.malloc.restype = ctypes.c_void_p
    libc.free.argtypes = (ctypes.c_void_p,)
    libc.free(libc.malloc(1 << 20))
    maps = mallinfo2().hblks
    block = libc.malloc(1 << 19)
    mapped = mallinfo2().hblks > maps
    libc.free(block)
    return mapped


def write_large_layer(tmp_path, dtype=np.float32):
    """A ``dtype`` weight and residual bundle of one layer ``l0`` of shape ``LARGE_LAYER``.

    A decaying spectrum keeps the selected rank and the protected set small,
    as on real weights, so the adapter adds little to the split: both layer
    jobs peak in the weight's SVD, in either dtype, and ``stm-init``'s split,
    with ``W0`` and the weight's pages, comes next.
    """
    m, n = LARGE_LAYER
    rng = np.random.default_rng(21)
    q1, _ = np.linalg.qr(rng.standard_normal((m, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return write_pair(
        tmp_path, {"l0": ((q1 * 0.98 ** np.arange(n)) @ q2.T).astype(dtype)},
        {"l0": (0.1 * rng.standard_normal((m, n))).astype(dtype)})


def dgesdd_workspace(m: int, n: int) -> int:
    """LAPACK's optimal ``dgesdd`` workspace, in floats, for the thin SVD of an m x n matrix."""
    k = min(m, n)
    a, sigma, query = np.empty((m, n), order="F"), np.empty(k), np.empty(1)
    iwork = np.empty(8 * k, dtype=np.int64)
    info = spectral._dgesdd(spectral._COL_MAJOR, b"S", m, n, a.ctypes.data, m,
                            sigma.ctypes.data, None, m, None, k, query.ctypes.data, -1,
                            iwork.ctypes.data)
    assert info == 0
    return int(query[0])


def cli_env() -> dict:
    """The environment for a child process that imports rankadapt like this one."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def tall_svd_working_set(m: int, n: int) -> int:
    """Bytes of the QR route's peak for the thin SVD of a tall m x n matrix.

    That is the float64 copy, ``R``, ``R``'s ``dgesdd`` workspace, ``U_R`` and
    ``Vt`` during ``R``'s SVD, or the copy (now ``Q``), ``U_R``, ``Vt`` and
    ``U`` during ``U = Q U_R``, whichever is larger.
    """
    return 8 * max(m * n + 3 * n * n + dgesdd_workspace(n, n), 2 * m * n + 2 * n * n)


def layer_job_growth(tmp_path, dtype, call: str) -> int:
    """Bytes by which a worker's peak RSS grows while it runs ``call`` on a large layer.

    The layer is :func:`write_large_layer`'s, in ``dtype``. The worker runs in
    ``cli._WORKER_ENV`` and has imported what the call runs before its RSS is
    read; the call is a line of source over ``w``, ``r``, ``cfg`` and ``out``.
    """
    wdir, rdir = write_large_layer(tmp_path, dtype)
    (tmp_path / "out").mkdir()
    job = pickle.dumps((read_entries(wdir)["l0"], read_entries(rdir)["l0"],
                        StmConfig(alpha=0.5), str(tmp_path / "out")))
    script = ("import pickle, sys\n"
              "import rankadapt.adapter, rankadapt.eranks, rankadapt.spectral\n"
              "import rankadapt.stm, rankadapt.tensorio\n"
              "from rankadapt.cli import spectra_layer, stm_init_layer\n"
              "def status(key):\n"
              "    with open('/proc/self/status') as fh:\n"
              "        return int(next(ln for ln in fh if ln.startswith(key)).split()[1])\n"
              "w, r, cfg, out = pickle.load(sys.stdin.buffer)\n"
              "before = status('VmRSS:')\n"
              f"{call}\n"
              "print(status('VmHWM:') - before)\n")
    proc = subprocess.run([sys.executable, "-c", script], input=job,
                          env=dict(cli_env(), **cli._WORKER_ENV),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return 1024 * int(proc.stdout)  # VmHWM and VmRSS are in KiB


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

    def test_os_error_names_its_layer(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(7)
        names = ("block2.mlp", "block1.mlp")
        wdir, rdir = write_pair(tmp_path, {n: rng.standard_normal((8, 6)) for n in names},
                                {n: 0.1 * rng.standard_normal((8, 6)) for n in names})
        monkeypatch.setattr(cli, "stm_init_layer", permission_worker)
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir, "--alpha", "0.5",
                     "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: block1.mlp: [Errno 13] Permission denied: '/bundle/data.bin'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]
        assert multiprocessing.active_children() == []

    def test_worker_death_is_an_os_error(self):
        layers = {"l0": (BundleEntry(Path("unread.bin"), "<f8", (1, 1)), None)}
        with pytest.raises(OSError, match="worker process ended abruptly"):
            _map_layers(exit_worker, layers)
        assert multiprocessing.active_children() == []

    def test_workers_run_in_the_worker_env(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
        caller = dict(os.environ)
        layers = {"l0": (BundleEntry(Path("unread.bin"), "<f8", (1, 1)), None)}
        assert _map_layers(env_worker, layers) == [cli._WORKER_ENV]
        # the caller's environment is restored: a set variable to its value,
        # an unset one to unset
        assert dict(os.environ) == caller
        assert os.environ["OMP_NUM_THREADS"] == "3"
        assert "MALLOC_MMAP_THRESHOLD_" not in os.environ

    def test_workers_are_born_blocking_sigint(self):
        entry = BundleEntry(Path("unread.bin"), "<f8", (1, 1))
        layers = {f"l{i}": (entry, None) for i in range(2)}
        # a running job keeps SIGINT blocked; SIGTERM, with which the pool
        # stops a broken worker, is not
        assert _map_layers(signal_mask_worker, layers) == [(True, False), (True, False)]
        # the caller's own mask is restored
        assert not {signal.SIGINT, signal.SIGTERM} & signal.pthread_sigmask(signal.SIG_BLOCK, [])

    def test_stop_signals_wait_until_every_worker_has_started(self, tmp_path):
        # in a child process that, like the CLI process, imports no numpy, so
        # no BLAS thread is there to take the signal while the mask holds it
        rng = np.random.default_rng(26)
        write_pair(tmp_path, {f"l{i}": rng.standard_normal((6, 4)) for i in range(2)})
        workers = min(len(os.sched_getaffinity(0)), 2)
        script = (
            "import json, multiprocessing, os, signal, sys\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from rankadapt.cli import _layer_entries, _map_layers, spectra_layer\n"
            "stop = signal.Signals[sys.argv[1]]\n"
            "layers, _ = _layer_entries('w', None)\n"
            "submitted, seen = [], []\n"
            "submit = ProcessPoolExecutor.submit\n"
            "def stopping_submit(pool, *args):\n"
            "    submitted.append(submit(pool, *args))\n"
            "    os.kill(os.getpid(), stop)  # to the whole process, as each worker starts\n"
            "    return submitted[-1]\n"
            "def stopped(sig, frame):\n"
            "    seen.append([len(submitted), len(multiprocessing.active_children())])\n"
            "    raise KeyboardInterrupt\n"
            "signal.signal(signal.SIGINT, stopped)\n"
            "signal.signal(signal.SIGTERM, stopped)\n"
            "ProcessPoolExecutor.submit = stopping_submit\n"
            "try:\n"
            "    _map_layers(spectra_layer, layers)\n"
            "except KeyboardInterrupt:\n"
            "    seen.append('interrupted')\n"
            "print(json.dumps({'seen': seen, 'left': len(multiprocessing.active_children()),\n"
            "                  'masked': len(signal.pthread_sigmask(signal.SIG_BLOCK, [])),\n"
            "                  'numpy': 'numpy' in sys.modules}))\n")
        for stop in ("SIGINT", "SIGTERM"):
            proc = subprocess.run([sys.executable, "-c", script, stop], cwd=tmp_path,
                                  env=cli_env(), capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
            # the signal arrives once, after both submits, with every worker
            # started, and the pool is shut down before _map_layers ends
            assert json.loads(proc.stdout) == {"seen": [[2, workers], "interrupted"],
                                               "left": 0, "masked": 0, "numpy": False}, stop

    @pytest.mark.skipif(glibc_mallinfo2() is None, reason="glibc's malloc statistics")
    def test_workers_keep_the_initial_mmap_threshold(self):
        layers = {"l0": (BundleEntry(Path("unread.bin"), "<f8", (1, 1)), None)}
        assert _map_layers(mmap_threshold_worker, layers) == [True]

    def test_worker_loads_only_its_modules(self, tmp_path):
        rng = np.random.default_rng(6)
        wdir, rdir = write_pair(tmp_path, {"l0": rng.standard_normal((8, 6))},
                                {"l0": 0.1 * rng.standard_normal((8, 6))})
        w, r = read_entries(wdir)["l0"], read_entries(rdir)["l0"]
        out = tmp_path / "out"
        out.mkdir()
        # the jobs as a worker receives them: pickled with their entries and config
        jobs = pickle.dumps([(stm_init_layer, ("l0", w, r, StmConfig(alpha=0.5), str(out))),
                             (spectra_layer, ("l0", w, r))])
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

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
    def test_peak_does_not_grow_with_layers_run(self, tmp_path):
        wdir, rdir = write_large_layer(tmp_path)
        outs = [tmp_path / "out0", tmp_path / "out1"]
        for out in outs:
            out.mkdir()
        job = pickle.dumps((read_entries(wdir)["l0"], read_entries(rdir)["l0"],
                            StmConfig(alpha=0.5), [str(out) for out in outs]))
        # one worker running the same layer twice, its peak RSS in KiB after
        # each run; ru_maxrss would report this test process's peak, which a
        # child process inherits at exec
        script = ("import pickle, sys; from rankadapt.cli import stm_init_layer\n"
                  "w, r, cfg, outs = pickle.load(sys.stdin.buffer)\n"
                  "for out in outs:\n"
                  "    stm_init_layer('l0', w, r, cfg, out)\n"
                  "    with open('/proc/self/status') as fh:\n"
                  "        print(next(ln for ln in fh if ln.startswith('VmHWM:')).split()[1])\n")
        proc = subprocess.run([sys.executable, "-c", script], input=job,
                              env=dict(cli_env(), **cli._WORKER_ENV),
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        first, second = map(int, proc.stdout.split())
        assert second <= first + 2048, f"peak grew from {first} to {second} KiB"

    @pytest.mark.skipif(sys.platform != "linux" or spectral._dgesdd is None,
                        reason="reads VmHWM from /proc; sizes LAPACK's dgesdd workspace")
    @pytest.mark.parametrize("call, dtype", [
        pytest.param(call, dtype, id=f"{call.split('(')[0]}-{np.dtype(dtype).name}")
        for call in ("stm_init_layer('l0', w, r, cfg, out)", "spectra_layer('l0', w, r)")
        for dtype in (np.float32, np.float64)])
    def test_layer_job_peaks_in_its_svd(self, tmp_path, call, dtype):
        growth = layer_job_growth(tmp_path, dtype, call)
        # the slack covers OpenBLAS's buffers and small arrays. A job exceeds
        # it when it calls dgesdd in one shot, when a map's pages stay resident
        # beside their float64 copy, or when W0 is made beside U and Vt
        bound = tall_svd_working_set(*LARGE_LAYER) + 6 * 2**20
        assert growth <= bound, f"job grew by {growth} bytes, above {bound}"

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
            run.mkdir()  # an --output goes in a directory that exists
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
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]


@pytest.mark.parametrize("argv", [
    ["stm-init", "--alpha", "0.5", "--gamma", "2"],
    ["stm-init", "--alpha", "0.5", "--protection-rule", "floor"],
    ["stm-init", "--alpha", "0.5", "--min-rank", "2"],
    ["stm-init", "--alpha", "0.5", "--max-rank-fraction", "1.0"],
    ["train-toy", "--gamma", "2"],
    ["spectra", "--gamma", "2"],
    ["spectra", "--format", "json"],
    ["train-toy", "--format", "csv"],
    ["verify", "--trials", "5"],
], ids="_".join)
def test_removed_flag_exits_2(tmp_path, capsys, argv):
    rng = np.random.default_rng(2)
    wdir, rdir = write_pair(tmp_path, {"w": rng.standard_normal((6, 5))},
                            {"w": 0.1 * rng.standard_normal((6, 5))})
    bundles = [] if argv[0] in ("train-toy", "verify") else ["--weights", wdir, "--residuals", rdir]
    output = [] if argv[0] == "verify" else ["--output", str(tmp_path / "out")]
    assert main([*argv, *bundles, *output]) == 2
    captured = capsys.readouterr()
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in captured.err
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

    @pytest.mark.parametrize("command", [["stm-init", "--alpha", "0.5"], ["spectra"]],
                             ids=lambda c: c[0])
    @pytest.mark.parametrize("bundle", ["w", "r"])
    @pytest.mark.parametrize("file", ["manifest.json", "a.bin"])
    def test_input_file_as_output_exits_2(self, tmp_path, capsys, command, bundle, file):
        rng = np.random.default_rng(14)
        wdir, rdir = write_pair(tmp_path, {"a": rng.standard_normal((6, 4))},
                                {"a": 0.1 * rng.standard_normal((6, 4))})
        before = {name: dir_bytes(tmp_path / name) for name in ("w", "r")}
        assert main([command[0], "--weights", wdir, "--residuals", rdir, *command[1:],
                     "--output", str(tmp_path / bundle / file)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --output must not be or hold a file of the weight or residual bundle\n")
        assert {name: dir_bytes(tmp_path / name) for name in ("w", "r")} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]

    @pytest.mark.parametrize("command", [["stm-init", "--alpha", "0.5"], ["spectra"]],
                             ids=lambda c: c[0])
    def test_output_holding_the_input_bundles_exits_2(self, tmp_path, capsys, command):
        rng = np.random.default_rng(16)
        out = tmp_path / "out"
        write_bundle(out, {"old": np.eye(2)})
        wdir, rdir = out / "W", out / "dW"
        write_bundle(wdir, {"a": rng.standard_normal((6, 4))})
        write_bundle(rdir, {"a": 0.1 * rng.standard_normal((6, 4))})
        before = dir_bytes(out)
        assert main([command[0], "--weights", str(wdir), "--residuals", str(rdir), *command[1:],
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --output must not be or hold a file of the weight or residual bundle\n")
        assert dir_bytes(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    @pytest.mark.parametrize("command", [["stm-init", "--alpha", "0.5"], ["spectra"]],
                             ids=lambda c: c[0])
    def test_output_holding_a_payload_exits_2(self, tmp_path, capsys, command):
        rng = np.random.default_rng(17)
        wdir, rdir = write_pair(tmp_path, {}, {"l": 0.1 * rng.standard_normal((6, 4))})
        sub_dir = Path(wdir) / "sub"
        write_bundle(sub_dir, {"x": np.eye(2)})  # a bundle, so stm-init would replace it
        record = write_entry(sub_dir, "l", rng.standard_normal((6, 4)))
        write_manifest(wdir, [{**record, "data": "sub/l.bin"}])
        before = {name: dir_bytes(tmp_path / name) for name in ("w", "r")}
        assert main([command[0], "--weights", wdir, "--residuals", rdir, *command[1:],
                     "--output", str(sub_dir)]) == 2
        assert capsys.readouterr().err == (
            "error: --output must not be or hold a file of the weight or residual bundle\n")
        assert {name: dir_bytes(tmp_path / name) for name in ("w", "r")} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]

    @pytest.mark.parametrize("command, target", [
        pytest.param(["stm-init", "--alpha", "0.5"], "", id="stm-init"),
        pytest.param(["spectra"], "/manifest.json", id="spectra"),
    ])
    @pytest.mark.parametrize("bundle", ["w", "r"])
    def test_output_through_a_missing_directory_exits_2(self, tmp_path, capsys, command, target,
                                                        bundle):
        # the kernel cannot stat missing/.., but the swap would replace what it resolves to
        rng = np.random.default_rng(20)
        wdir, rdir = write_pair(tmp_path, {"a": rng.standard_normal((6, 4))},
                                {"a": 0.1 * rng.standard_normal((6, 4))})
        before = {name: dir_bytes(tmp_path / name) for name in ("w", "r")}
        assert main([command[0], "--weights", wdir, "--residuals", rdir, *command[1:],
                     "--output", f"{tmp_path / 'missing' / '..' / bundle}{target}"]) == 2
        assert capsys.readouterr().err == (
            "error: --output must not be or hold a file of the weight or residual bundle\n")
        assert {name: dir_bytes(tmp_path / name) for name in ("w", "r")} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]

    @pytest.mark.parametrize("command", [["stm-init", "--alpha", "0.5"], ["spectra"]],
                             ids=lambda c: c[0])
    def test_empty_bundle_exits_2(self, tmp_path, capsys, command):
        wdir, rdir = write_pair(tmp_path, {}, {})
        assert main([command[0], "--weights", wdir, "--residuals", rdir, *command[1:],
                     "--output", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: weight bundle {wdir} holds no matrices\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]

    def test_directory_as_report_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(18)
        wdir, rdir = write_pair(tmp_path, {"a": rng.standard_normal((6, 4))},
                                {"a": 0.1 * rng.standard_normal((6, 4))})
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.csv").write_text("keep\n")
        assert main(["spectra", "--weights", wdir, "--residuals", rdir,
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out.resolve()} is a directory; not replacing it\n")
        assert dir_bytes(out) == {"keep.csv": b"keep\n"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "r", "w"]

    def test_report_in_missing_directory_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(19)
        wdir, rdir = write_pair(tmp_path, {"a": rng.standard_normal((6, 4))},
                                {"a": 0.1 * rng.standard_normal((6, 4))})
        out = tmp_path / "missing" / "s.csv"
        assert main(["spectra", "--weights", wdir, "--residuals", rdir,
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such directory: '{out.parent}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]

    def test_bundle_in_missing_directory_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(22)
        wdir, rdir = write_pair(tmp_path, {"a": rng.standard_normal((6, 4))},
                                {"a": 0.1 * rng.standard_normal((6, 4))})
        out = tmp_path / "x" / "y" / "out"
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir, "--alpha", "0.5",
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such directory: '{out.parent}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]

    @pytest.mark.parametrize("command", [["stm-init", "--alpha", "0.5"], ["spectra"]],
                             ids=lambda c: c[0])
    def test_symlink_loop_output_exits_2(self, tmp_path, capsys, command):
        rng = np.random.default_rng(21)
        wdir, rdir = write_pair(tmp_path, {"a": rng.standard_normal((6, 4))},
                                {"a": 0.1 * rng.standard_normal((6, 4))})
        loop = tmp_path / "loop"
        loop.symlink_to("loop")
        assert main([command[0], "--weights", wdir, "--residuals", rdir, *command[1:],
                     "--output", str(loop)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {loop} leads into a symlink loop; not replacing it\n"
        assert captured.out == ""
        assert os.readlink(loop) == "loop"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loop", "r", "w"]

    def test_infeasible_rank_cap_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        # a 1 x N bias has rank cap floor(1/2) = 0, so no budget of at least 1
        shapes = {"proj": (8, 6), "z.bias": (1, 4), "bias": (1, 8)}
        wdir, rdir = write_pair(tmp_path, {k: rng.standard_normal(s) for k, s in shapes.items()},
                                {k: rng.standard_normal(s) for k, s in shapes.items()})
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir, "--alpha", "0.5",
                     "--output", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: bias: rank cap floor(K/2) = 0 for K=1 leaves no rank budget\n")
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


@pytest.mark.parametrize("argv", [
    ["stm-init", "--weights", ".", "--residuals", "../r", "--alpha", "0.5"],
    ["spectra", "--weights", ".", "--residuals", "../r"],
    ["train-toy"],
], ids=lambda argv: argv[0])
def test_empty_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # an unset shell variable; run from inside the weight bundle, where an
    # empty path would name the bundle itself
    def start_work(*args, **kwargs):
        raise AssertionError("a layer or training step started")

    monkeypatch.setattr(cli, "_map_layers", start_work)
    monkeypatch.setattr(harness, "run_stm_experiment", start_work)
    write_pair(tmp_path, {"a": np.eye(3)}, {"a": np.ones((3, 3))})
    before = dir_bytes(tmp_path)
    monkeypatch.chdir(tmp_path / "w")
    assert main([*argv, "--output", ""]) == 2
    captured = capsys.readouterr()
    assert "argument --output: must not be empty" in captured.err
    assert captured.out == ""
    assert dir_bytes(tmp_path) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "w"]


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


def test_interruption_exits_130(monkeypatch, capsys):
    before = signal.getsignal(signal.SIGTERM)

    def interrupted_command(args):
        assert signal.getsignal(signal.SIGTERM) is signal.default_int_handler
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_verify", interrupted_command)
    assert main(["verify"]) == errors.EXIT_INTERRUPTED == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n"
    assert captured.out == ""
    assert signal.getsignal(signal.SIGTERM) is before


def _proc_stat(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` from the state on, or None if ``pid`` is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat[stat.rindex(")") + 2:].split()  # the command name may hold spaces


def _children(pid: int) -> dict[int, str]:
    """The start time of each child of ``pid``, by child pid."""
    kids = {}
    for entry in Path("/proc").iterdir():
        stat = _proc_stat(int(entry.name)) if entry.name.isdigit() else None
        if stat is not None and int(stat[1]) == pid:
            kids[int(entry.name)] = stat[19]
    return kids


def _running(pid: int, start: str) -> bool:
    """Whether the process ``pid`` that started at ``start`` still runs (is no zombie)."""
    stat = _proc_stat(pid)
    return stat is not None and stat[19] == start and stat[0] not in "ZX"


def _blocks_sigint(pid: int) -> bool:
    status = Path(f"/proc/{pid}/status").read_text()
    mask = next(ln for ln in status.splitlines() if ln.startswith("SigBlk:")).split()[1]
    return bool(int(mask, 16) & 1 << (signal.SIGINT - 1))


@pytest.mark.skipif(sys.platform != "linux", reason="reads worker processes from /proc")
@pytest.mark.parametrize("stop", ["sigterm", "ctrl-c"])
def test_stopped_stm_init_cleans_up(tmp_path, stop):
    # SIGTERM as kill and batch schedulers send it, to the CLI process alone;
    # Ctrl-C as a terminal sends it, to the whole process group
    rng = np.random.default_rng(24)
    names = [f"block{i}.mlp" for i in range(8)]  # some seconds of work on two cores
    shape = (1536, 768)
    write_pair(tmp_path, {n: rng.standard_normal(shape).astype(np.float32) for n in names},
               {n: (0.1 * rng.standard_normal(shape)).astype(np.float32) for n in names})
    workers = min(len(os.sched_getaffinity(0)), len(names))
    with open(tmp_path / "stdout", "wb") as out, open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "rankadapt.cli", "stm-init", "--weights", "w",
             "--residuals", "r", "--alpha", "0.5", "--output", "out"],
            cwd=tmp_path, env=cli_env(), stdout=out, stderr=err, start_new_session=True)
    kids = {}
    try:
        staging = tmp_path / f".out.staging-{proc.pid}"
        deadline = time.monotonic() + 60
        # signal once every worker is up, with SIGINT blocked from its start
        while True:
            assert proc.poll() is None and time.monotonic() < deadline, "no workers seen"
            kids = _children(proc.pid)
            pool = [pid for pid in kids
                    if b"spawn_main" in Path(f"/proc/{pid}/cmdline").read_bytes()]
            if staging.is_dir() and len(pool) == workers and all(map(_blocks_sigint, pool)):
                break
            time.sleep(0.01)
        if stop == "sigterm":
            proc.send_signal(signal.SIGTERM)
        else:
            os.killpg(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=60) == 130
        assert (tmp_path / "stderr").read_bytes() == b"error: interrupted\n"
        assert (tmp_path / "stdout").read_bytes() == b""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r", "stderr", "stdout", "w"]
        # the workers and multiprocessing's resource tracker
        deadline = time.monotonic() + 10
        while any(_running(*kid) for kid in kids.items()) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid, start in kids.items() if _running(pid, start)] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid, start in kids.items():
            if _running(pid, start):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(sys.platform != "linux", reason="reads worker processes from /proc")
def test_sigkilled_caller_ends_its_workers(tmp_path):
    entry = BundleEntry(Path("unread.bin"), "<f8", (1, 1))
    layers = {f"l{i}": (entry, None) for i in range(2)}
    workers = min(len(os.sched_getaffinity(0)), len(layers))
    script = ("import pickle, sys; from rankadapt.cli import _map_layers; "
              "_map_layers(*pickle.load(sys.stdin.buffer))")
    proc = subprocess.Popen([sys.executable, "-c", script], stdin=subprocess.PIPE, env=cli_env())
    proc.stdin.write(pickle.dumps((sleeping_worker, layers, str(tmp_path))))
    proc.stdin.close()
    kids = {}
    try:
        deadline = time.monotonic() + 60
        while len(list(tmp_path.iterdir())) < workers:
            assert proc.poll() is None and time.monotonic() < deadline, "no workers seen"
            time.sleep(0.01)
        kids = {int(p.name): _proc_stat(int(p.name))[19] for p in tmp_path.iterdir()}
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while any(_running(*kid) for kid in kids.items()) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid, start in kids.items() if _running(pid, start)] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid, start in kids.items():
            if _running(pid, start):
                os.kill(pid, signal.SIGKILL)


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


def test_cli_process_loads_no_numpy(tmp_path):
    # only the workers of spectra and stm-init compute; the CLI process, which
    # validates and hands out layers, loads no numpy, also on the exit-2 paths
    rng = np.random.default_rng(27)
    shapes = {"a": (6, 4), "b": (4, 6)}
    write_pair(tmp_path, {k: rng.standard_normal(s) for k, s in shapes.items()},
               {k: 0.1 * rng.standard_normal(s) for k, s in shapes.items()})
    write_bundle(tmp_path / "bias", {"bias": rng.standard_normal((1, 4))})
    write_bundle(tmp_path / "rt", {"a": np.zeros((4, 6)), "b": np.zeros((4, 6))})
    stm_init = ["stm-init", "--weights", "w", "--residuals", "r", "--output", "out"]
    runs = [
        (["spectra", "--weights", "w", "--residuals", "r", "--output", "s.csv"], 0),
        (["spectra", "--weights", "w", "--output", "p.csv"], 0),
        ([*stm_init, "--alpha", "0.5"], 0),
        ([*stm_init, "--alpha", "0"], 2),
        (["stm-init", "--weights", "bias", "--residuals", "bias", "--alpha", "0.5",
          "--output", "cap"], 2),
        (["stm-init", "--weights", "w", "--residuals", "rt", "--alpha", "0.5",
          "--output", "shape"], 2),
        (["spectra", "--weights", "w", "--residuals", "rt", "--output", "shape.csv"], 2),
    ]
    script = ("import json, sys; from rankadapt.cli import main; "
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
              "print(json.dumps([codes, 'numpy' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([a for a, _ in runs])],
                          cwd=tmp_path, env=cli_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[code for _, code in runs], False]


def _scaled_gradients(mse_and_grads):
    def broken(*args):
        loss, grads = mse_and_grads(*args)
        return loss, [1.01 * g for g in grads]

    return broken


class TestVerify:
    def test_default_sweep_passes(self):
        assert main(["verify"]) == 0

    @pytest.mark.parametrize("module, name, break_it", [
        pytest.param(eranks, "stable_rank", lambda f: lambda *a: f(*a) + 1.0,
                     id="rank_ordering"),
        pytest.param(adapter, "merge", lambda f: lambda layer: f(layer) + 1e-6,
                     id="init_exactness"),
        # an offset leaves the finite differences of the penalty gradient check alone
        pytest.param(stm, "maintaining_penalty", lambda f: lambda layers: f(layers) + 1e-6,
                     id="zero_penalty_at_init"),
        pytest.param(stm, "maintaining_penalty_grad",
                     lambda f: lambda layer: tuple(1.01 * g for g in f(layer)),
                     id="penalty_gradient"),
        pytest.param(stm, "maintaining_penalty_grad",
                     lambda f: lambda layer: tuple(np.full_like(g, np.nan) for g in f(layer)),
                     id="penalty_gradient-nan"),
        pytest.param(stm, "maintaining_penalty_grad",
                     lambda f: lambda layer: tuple(np.zeros_like(g) for g in f(layer)),
                     id="penalty_gradient-zero"),
        pytest.param(harness, "mse_and_grads", _scaled_gradients, id="task_gradient"),
    ])
    def test_each_property_can_fail(self, request, monkeypatch, capsys, module, name, break_it):
        # the library function that the property checks is wrong; that property alone fails
        prop = request.node.callspec.id.split("-")[0]
        monkeypatch.setattr(module, name, break_it(getattr(module, name)))
        assert main(["verify"]) == 3
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if not line.startswith("PASS ")]
        assert len(lines) == 5 and len(failed) == 1
        assert failed[0].startswith(f"FAIL {prop}: trial ")

    def test_one_decomposition_per_sweep_layer(self, monkeypatch):
        decompose = spectral.decompose
        shapes = []
        monkeypatch.setattr(spectral, "decompose",
                            lambda w: shapes.append(w.shape) or decompose(w))
        assert main(["verify"]) == 0  # the rank ordering sweep decomposes none
        assert len(shapes) == 100  # one sweep serves init, zero penalty and penalty gradient


class TestTrainToy:
    @pytest.fixture
    def no_training(self, monkeypatch):
        def train(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(harness, "run_stm_experiment", train)

    def test_directory_output_exits_2_before_training(self, tmp_path, capsys, no_training):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.csv").write_text("keep\n")
        assert main(["train-toy", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out.resolve()} is a directory; not replacing it\n"
        assert captured.out == ""
        assert dir_bytes(out) == {"keep.csv": b"keep\n"}

    def test_symlink_loop_output_exits_2_before_training(self, tmp_path, capsys, no_training):
        loop = tmp_path / "loop.csv"
        loop.symlink_to("loop.csv")
        assert main(["train-toy", "--output", str(loop)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {loop} leads into a symlink loop; not replacing it\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["loop.csv"]

    def test_missing_output_directory_exits_1_before_training(self, tmp_path, capsys,
                                                             no_training):
        out = tmp_path / "missing" / "m.csv"
        assert main(["train-toy", "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such directory: '{out.parent}'\n")
        assert list(tmp_path.iterdir()) == []

    def test_default_schema(self, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(["train-toy", "--seed", "7", "--output", str(out)]) == 0
        rows = read_csv(out)
        assert [row["method"] for row in rows] == ["stm", "zero_init_lora", "random_subset_lora"]
        for row in rows:
            for col in ("final_loss", "drift", "recall", "steps_to_threshold"):
                assert row[col] != ""
        assert float(rows[0]["recall"]) == 1.0
        assert [row["recall"] for row in rows[1:]] == ["na", "na"]  # only stm selects

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
        assert main(["train-toy", "--output", str(out)]) == 0
        rows = {row["method"]: row for row in read_csv(out)}
        assert rows["stm"]["recall"] != "na"
        assert rows["random_subset_lora"]["recall"] == "na"

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
        assert [row["method"] for row in read_csv(out)] == ["stm", "zero_init_lora",
                                                            "random_subset_lora"]

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
