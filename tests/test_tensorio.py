import csv
import json

import numpy as np
import pytest

from rankadapt.errors import (
    BundleCorruptionError,
    BundleNotFoundError,
    UnsupportedFormatError,
    ValidationError,
)
from rankadapt.tensorio import (
    MatrixBundle,
    Report,
    read_bundle,
    read_matrix,
    read_shapes,
    write_bundle,
)

from conftest import COMMIT_FAILURES, break_commit


def test_zero_matrix_layout(tmp_path):
    bundle = MatrixBundle()
    bundle.add("zero", np.zeros((1, 1)))
    write_bundle(tmp_path, bundle)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == [
        {"name": "zero", "rows": 1, "cols": 1, "dtype": "f64", "data": "zero.bin"}
    ]
    assert (tmp_path / "zero.bin").read_bytes() == b"\x00" * 8


def test_payload_is_exactly_rows_cols_itemsize(tmp_path):
    bundle = MatrixBundle()
    bundle.add("m", np.arange(6, dtype=np.float64).reshape(2, 3))
    write_bundle(tmp_path, bundle)
    assert (tmp_path / "m.bin").stat().st_size == 48


def test_round_trip_bit_exact(tmp_path):
    bundle = MatrixBundle()
    bundle.add("w", np.random.default_rng(7).standard_normal((64, 64)))
    write_bundle(tmp_path, bundle)
    back = read_bundle(tmp_path)
    assert back.names() == ["w"]
    assert back.entries["w"].dtype == np.float64
    assert np.array_equal(back.entries["w"], bundle.entries["w"])


def test_round_trip_preserves_f32(tmp_path):
    bundle = MatrixBundle()
    bundle.add("small", np.random.default_rng(8).standard_normal((5, 4)).astype(np.float32))
    write_bundle(tmp_path, bundle)
    back = read_bundle(tmp_path)
    assert back.entries["small"].dtype == np.float32
    assert np.array_equal(back.entries["small"], bundle.entries["small"])
    # compute accessor widens, values unchanged (f32 embeds exactly in f64)
    widened = back.matrix("small")
    assert widened.dtype == np.float64
    assert np.array_equal(widened.astype(np.float32), bundle.entries["small"])


def test_duplicate_and_bad_names():
    bundle = MatrixBundle()
    bundle.add("w", np.ones((2, 2)))
    with pytest.raises(ValidationError):
        bundle.add("w", np.ones((2, 2)))
    with pytest.raises(ValidationError):
        bundle.add("../escape", np.ones((2, 2)))


def test_missing_manifest(tmp_path):
    with pytest.raises(BundleNotFoundError):
        read_bundle(tmp_path / "nowhere")


def test_size_mismatch_is_corruption(tmp_path):
    manifest = [{"name": "w", "rows": 4, "cols": 4, "dtype": "f64", "data": "w.bin"}]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "w.bin").write_bytes(np.zeros(15).tobytes())
    with pytest.raises(BundleCorruptionError):
        read_bundle(tmp_path)


@pytest.mark.parametrize("entry", [
    {"name": "w", "rows": "abc", "cols": 1, "dtype": "f64", "data": "w.bin"},
    {"name": "w", "rows": 1, "dtype": "f64", "data": "w.bin"},
    {"name": "w", "rows": 1, "cols": 1, "dtype": "f64", "data": 7},
    "w.bin",
])
def test_malformed_manifest_entry_is_corruption(tmp_path, entry):
    (tmp_path / "manifest.json").write_text(json.dumps([entry]))
    (tmp_path / "w.bin").write_bytes(np.zeros(1).tobytes())
    with pytest.raises(BundleCorruptionError):
        read_bundle(tmp_path)


def test_unknown_dtype_rejected(tmp_path):
    manifest = [{"name": "w", "rows": 1, "cols": 1, "dtype": "f16", "data": "w.bin"}]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "w.bin").write_bytes(b"\x00\x00")
    with pytest.raises(UnsupportedFormatError):
        read_bundle(tmp_path)


@pytest.mark.parametrize("data", ["../secret.bin", "sub/../../secret.bin", "ABSOLUTE"])
def test_data_path_outside_bundle_is_corruption(tmp_path, data):
    secret = tmp_path / "secret.bin"
    secret.write_bytes(np.zeros(4).tobytes())
    root = tmp_path / "bundle"
    (root / "sub").mkdir(parents=True)
    data = str(secret) if data == "ABSOLUTE" else data
    manifest = [{"name": "w", "rows": 2, "cols": 2, "dtype": "f64", "data": data}]
    (root / "manifest.json").write_text(json.dumps(manifest))
    for read in (read_bundle, read_shapes, lambda path: read_matrix(path, "w")):
        with pytest.raises(BundleCorruptionError, match="outside"):
            read(root)


def test_duplicate_manifest_name_rejected(tmp_path):
    (tmp_path / "w.bin").write_bytes(np.zeros(1).tobytes())
    entry = {"name": "w", "rows": 1, "cols": 1, "dtype": "f64", "data": "w.bin"}
    (tmp_path / "manifest.json").write_text(json.dumps([entry, entry]))
    for read in (read_bundle, read_shapes):
        with pytest.raises(ValidationError, match="duplicate"):
            read(tmp_path)


def test_rewrite_leaves_open_bundle_unchanged(tmp_path):
    old_values = {"a": np.arange(12.0).reshape(3, 4), "b": np.ones((2, 2), dtype=np.float32)}
    bundle = MatrixBundle()
    for name, value in old_values.items():
        bundle.add(name, value)
    write_bundle(tmp_path, bundle)
    old = read_bundle(tmp_path)

    rewrite = MatrixBundle()
    rewrite.add("a", -2.0 * old_values["a"])
    write_bundle(tmp_path, rewrite)

    for name, value in old_values.items():
        assert np.array_equal(old.matrix(name), value)
    assert read_bundle(tmp_path).names() == ["a"]
    assert np.array_equal(read_bundle(tmp_path).matrix("a"), -2.0 * old_values["a"])
    # no payload of the old bundle outlives the rewrite
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "manifest.json"]


@pytest.mark.parametrize("failure", COMMIT_FAILURES)
def test_failed_rewrite_keeps_old_bundle(tmp_path, monkeypatch, failure):
    path = tmp_path / "bundle"
    old = MatrixBundle()
    old.add("a", np.ones((2, 2)))
    write_bundle(path, old)
    break_commit(monkeypatch, failure, "rankadapt.tensorio")
    new = MatrixBundle()
    new.add("a", np.zeros((2, 2)))
    new.add("b", np.zeros((2, 2)))
    with pytest.raises(OSError, match="disk full"):
        write_bundle(path, new)
    monkeypatch.undo()
    back = read_bundle(path)
    assert back.names() == ["a"]
    assert np.array_equal(back.matrix("a"), np.ones((2, 2)))
    assert sorted(p.name for p in path.iterdir()) == ["a.bin", "manifest.json"]
    assert [p.name for p in tmp_path.iterdir()] == ["bundle"]


def test_non_bundle_directory_is_not_replaced(tmp_path):
    (tmp_path / "notes.txt").write_text("keep me")
    bundle = MatrixBundle()
    bundle.add("a", np.ones((2, 2)))
    with pytest.raises(ValidationError, match="holds no bundle"):
        write_bundle(tmp_path, bundle)
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
    assert not list(tmp_path.parent.glob(f".{tmp_path.name}.*"))


def test_read_matrix_maps_one_entry(tmp_path):
    bundle = MatrixBundle()
    bundle.add("keep", np.arange(6, dtype=np.float32).reshape(2, 3))
    bundle.add("gone", np.ones((2, 2)))
    write_bundle(tmp_path, bundle)
    assert read_shapes(tmp_path) == {"keep": (2, 3), "gone": (2, 2)}
    (tmp_path / "gone.bin").unlink()
    got = read_matrix(tmp_path, "keep")
    assert got.dtype == np.float32  # as stored; numerical code widens it
    assert np.array_equal(got, np.arange(6.0).reshape(2, 3))
    with pytest.raises(BundleNotFoundError):
        read_matrix(tmp_path, "gone")
    with pytest.raises(KeyError):
        read_matrix(tmp_path, "absent")


def test_report_csv_json_same_numbers(tmp_path):
    records = [
        {"name": "a", "value": 1.8898815748423097, "count": 3},
        {"name": "b", "value": 0.1, "count": 4},
    ]
    report = Report(kind="metrics", records=records)
    report.to_csv(tmp_path / "r.csv")
    report.to_json(tmp_path / "r.json")

    with open(tmp_path / "r.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    loaded = json.loads((tmp_path / "r.json").read_text())
    assert loaded["kind"] == "metrics"
    for csv_row, json_row, orig in zip(rows, loaded["records"], records):
        assert float(csv_row["value"]) == json_row["value"] == orig["value"]
        assert int(csv_row["count"]) == json_row["count"] == orig["count"]


def test_report_header_row_mandatory(tmp_path):
    report = Report(kind="ranks", records=[{"x": 1.5}])
    report.to_csv(tmp_path / "r.csv")
    first = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert first == "x"


def test_report_validation():
    with pytest.raises(ValidationError):
        Report(kind="bogus", records=[])
    with pytest.raises(ValidationError):
        Report(kind="metrics", records=[]).to_csv("/dev/null")
    with pytest.raises(ValidationError):
        Report(kind="metrics", records=[{"a": 1}, {"b": 2}]).to_csv("/dev/null")
