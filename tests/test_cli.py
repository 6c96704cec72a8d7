import csv
import json
from pathlib import Path

import numpy as np
import pytest

from rankadapt.cli import main
from rankadapt.harness import make_synthetic_model
from rankadapt.tensorio import MatrixBundle, read_bundle, write_bundle


def write_pair(tmp_path, names_weights, names_residuals=None):
    wdir, rdir = tmp_path / "w", tmp_path / "r"
    wb, rb = MatrixBundle(), MatrixBundle()
    for name, mat in names_weights.items():
        wb.add(name, mat)
    for name, mat in (names_residuals or {}).items():
        rb.add(name, mat)
    write_bundle(wdir, wb)
    write_bundle(rdir, rb)
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
        w0 = bundle.matrix("layer.W0")
        b = bundle.matrix("layer.B")
        a = bundle.matrix("layer.A")
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
        total = sum(bundle.matrix(f"{n}.B").size + bundle.matrix(f"{n}.A").size
                    for n in weights)
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

    def test_missing_residual_exits_2(self, tmp_path):
        wdir, rdir = write_pair(tmp_path, {"a": np.eye(3), "b": np.eye(3)},
                                {"a": np.zeros((3, 3))})
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.5", "--output", str(tmp_path / "o")]) == 2


def count_svd_calls(monkeypatch):
    """Wrap numpy.linalg.svd; return a dict of call counts keyed by compute_uv."""
    calls = {True: 0, False: 0}
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls[kwargs.get("compute_uv", True)] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


class TestSvdBudget:
    """Each layer is decomposed once; a residual spectrum never needs vectors."""

    SHAPES = {"l0": (12, 8), "l1": (8, 12), "l2": (10, 10)}

    def bundles(self, tmp_path):
        rng = np.random.default_rng(8)
        weights = {k: rng.standard_normal(s) for k, s in self.SHAPES.items()}
        residuals = {k: 0.1 * rng.standard_normal(s) for k, s in self.SHAPES.items()}
        return write_pair(tmp_path, weights, residuals)

    def test_stm_init_one_svd_per_layer(self, tmp_path, monkeypatch):
        wdir, rdir = self.bundles(tmp_path)
        calls = count_svd_calls(monkeypatch)
        assert main(["stm-init", "--weights", wdir, "--residuals", rdir,
                     "--alpha", "0.5", "--output", str(tmp_path / "o")]) == 0
        assert calls == {True: len(self.SHAPES), False: 0}

    def test_spectra_residuals_one_svd_each(self, tmp_path, monkeypatch):
        wdir, rdir = self.bundles(tmp_path)
        calls = count_svd_calls(monkeypatch)
        assert main(["spectra", "--weights", wdir, "--residuals", rdir,
                     "--output", str(tmp_path / "report.csv")]) == 0
        assert calls == {True: len(self.SHAPES), False: len(self.SHAPES)}


class TestVerify:
    def test_default_sweep_passes(self):
        assert main(["verify"]) == 0  # default 1000 rank-ordering trials

    def test_injected_fault_exits_3(self):
        assert main(["verify", "--trials", "8", "--inject-fault"]) == 3

    def test_zero_trials_exits_2(self):
        assert main(["verify", "--trials", "0"]) == 2


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

    def test_divergence_exits_4(self, tmp_path):
        assert main(["train-toy", "--learning-rate", "1e6",
                     "--output", str(tmp_path / "x.csv")]) == 4
