import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from rankadapt.errors import (
    BundleCorruptionError,
    BundleNotFoundError,
    UnsupportedFormatError,
    ValidationError,
)
from rankadapt.tensorio import (
    Report,
    read_bundle,
    read_entries,
    write_bundle,
)

from conftest import COMMIT_FAILURES, JSON, break_commit


def test_zero_matrix_layout(tmp_path):
    write_bundle(tmp_path, {"zero": np.zeros((1, 1))})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == [
        {"name": "zero", "rows": 1, "cols": 1, "dtype": "f64", "data": "zero.bin"}
    ]
    assert (tmp_path / "zero.bin").read_bytes() == b"\x00" * 8


def test_payload_is_exactly_rows_cols_itemsize(tmp_path):
    write_bundle(tmp_path, {"m": np.arange(6, dtype=np.float64).reshape(2, 3)})
    assert (tmp_path / "m.bin").stat().st_size == 48


def test_round_trip_bit_exact(tmp_path):
    bundle = {"w": np.random.default_rng(7).standard_normal((64, 64))}
    write_bundle(tmp_path, bundle)
    back = read_bundle(tmp_path)
    assert type(back) is dict
    assert list(back) == ["w"]
    assert back["w"].dtype == np.float64
    assert not back["w"].flags.writeable
    assert np.array_equal(back["w"], bundle["w"])


def test_round_trip_preserves_f32(tmp_path):
    bundle = {"small": np.random.default_rng(8).standard_normal((5, 4)).astype(np.float32)}
    write_bundle(tmp_path, bundle)
    back = read_bundle(tmp_path)
    assert back["small"].dtype == np.float32
    assert np.array_equal(back["small"], bundle["small"])
    # widening leaves the values unchanged (f32 embeds exactly in f64)
    widened = np.asarray(back["small"], dtype=np.float64)
    assert widened.dtype == np.float64
    assert np.array_equal(widened.astype(np.float32), bundle["small"])


@pytest.mark.parametrize("dtype, code", [(">f4", "f32"), (">f8", "f64")])
def test_round_trip_big_endian_keeps_width(tmp_path, dtype, code):
    values = np.random.default_rng(9).standard_normal((2, 3)).astype(dtype)
    write_bundle(tmp_path, {"x": values})
    assert json.loads((tmp_path / "manifest.json").read_text())[0]["dtype"] == code
    back = read_bundle(tmp_path)["x"]
    assert back.dtype == np.dtype(dtype).newbyteorder("<")
    assert np.array_equal(back, values)


def test_bad_name_writes_nothing(tmp_path):
    path = tmp_path / "bundle"
    with pytest.raises(ValidationError, match="invalid entry name"):
        write_bundle(path, {"w": np.ones((2, 2)), "../escape": np.ones((2, 2))})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dtype", ["complex64", "complex128"])
def test_complex_matrix_rejected(tmp_path, dtype):
    path = tmp_path / "bundle"
    with pytest.raises(ValidationError, match="complex"):
        write_bundle(path, {"w": np.ones((2, 2)), "x": np.full((2, 2), 1j, dtype=dtype)})
    assert list(tmp_path.iterdir()) == []


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
    {"name": "w", "rows": 1e999, "cols": 1, "dtype": "f64", "data": "w.bin"},  # Infinity
    {"name": "w", "rows": 1.9, "cols": 1, "dtype": "f64", "data": "w.bin"},  # was read as 1
    {"name": "w", "rows": 1.0, "cols": 1, "dtype": "f64", "data": "w.bin"},
    {"name": "w", "rows": 1, "cols": True, "dtype": "f64", "data": "w.bin"},
    {"name": "w", "rows": 1, "cols": "1", "dtype": "f64", "data": "w.bin"},
    {"name": "w", "rows": 1, "cols": 0, "dtype": "f64", "data": "w.bin"},
    {"name": "w", "rows": 1, "cols": 1, "dtype": [], "data": "w.bin"},
    {"name": "w", "rows": 1, "cols": 1, "dtype": "f64", "data": "w\x00.bin"},
    {"name": "w", "rows": 1, "cols": 1, "dtype": "f64", "data": "x" * 300},
])
def test_malformed_manifest_entry_is_corruption(tmp_path, entry):
    (tmp_path / "manifest.json").write_text(json.dumps([entry]))
    (tmp_path / "w.bin").write_bytes(np.zeros(1).tobytes())
    for read in (read_bundle, read_entries):
        with pytest.raises(BundleCorruptionError):
            read(tmp_path)


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
    for read in (read_bundle, read_entries):
        with pytest.raises(BundleCorruptionError, match="outside"):
            read(root)


def test_duplicate_manifest_name_rejected(tmp_path):
    (tmp_path / "w.bin").write_bytes(np.zeros(1).tobytes())
    entry = {"name": "w", "rows": 1, "cols": 1, "dtype": "f64", "data": "w.bin"}
    (tmp_path / "manifest.json").write_text(json.dumps([entry, entry]))
    for read in (read_bundle, read_entries):
        with pytest.raises(ValidationError, match="duplicate"):
            read(tmp_path)


def test_rewrite_leaves_open_bundle_unchanged(tmp_path):
    old_values = {"a": np.arange(12.0).reshape(3, 4), "b": np.ones((2, 2), dtype=np.float32)}
    write_bundle(tmp_path, old_values)
    old = read_bundle(tmp_path)

    write_bundle(tmp_path, {"a": -2.0 * old_values["a"]})

    for name, value in old_values.items():
        assert np.array_equal(old[name], value)
    assert list(read_bundle(tmp_path)) == ["a"]
    assert np.array_equal(read_bundle(tmp_path)["a"], -2.0 * old_values["a"])
    # no payload of the old bundle outlives the rewrite
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "manifest.json"]


@pytest.mark.parametrize("failure", COMMIT_FAILURES)
def test_failed_rewrite_keeps_old_bundle(tmp_path, monkeypatch, failure):
    path = tmp_path / "bundle"
    write_bundle(path, {"a": np.ones((2, 2))})
    break_commit(monkeypatch, failure)
    with pytest.raises(OSError, match="disk full"):
        write_bundle(path, {"a": np.zeros((2, 2)), "b": np.zeros((2, 2))})
    monkeypatch.undo()
    back = read_bundle(path)
    assert list(back) == ["a"]
    assert np.array_equal(back["a"], np.ones((2, 2)))
    assert sorted(p.name for p in path.iterdir()) == ["a.bin", "manifest.json"]
    assert [p.name for p in tmp_path.iterdir()] == ["bundle"]


def test_non_bundle_directory_is_not_replaced(tmp_path):
    (tmp_path / "notes.txt").write_text("keep me")
    with pytest.raises(ValidationError, match="holds no bundle"):
        write_bundle(tmp_path, {"a": np.ones((2, 2))})
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
    assert not list(tmp_path.parent.glob(f".{tmp_path.name}.*"))


def test_entry_load_maps_one_entry(tmp_path):
    write_bundle(tmp_path, {"keep": np.arange(6, dtype=np.float32).reshape(2, 3),
                            "gone": np.ones((2, 2)), "cut": np.ones((2, 2))})
    entries = read_entries(tmp_path)
    assert {name: e.shape for name, e in entries.items()} == {
        "keep": (2, 3), "gone": (2, 2), "cut": (2, 2)}
    (tmp_path / "gone.bin").unlink()
    with open(tmp_path / "cut.bin", "r+b") as fh:
        fh.truncate(8)
    got = entries["keep"].load()
    assert got.dtype == np.float32  # as stored; numerical code widens it
    assert np.array_equal(got, np.arange(6.0).reshape(2, 3))
    with pytest.raises(BundleNotFoundError):
        entries["gone"].load()
    with pytest.raises(BundleCorruptionError, match="holds 8 bytes"):
        entries["cut"].load()


def test_data_symlink_loop_is_corruption(tmp_path):
    (tmp_path / "a.bin").symlink_to("b.bin")
    (tmp_path / "b.bin").symlink_to("a.bin")
    manifest = [{"name": "w", "rows": 1, "cols": 1, "dtype": "f64", "data": "a.bin"}]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(BundleCorruptionError, match="unusable data file name"):
        read_entries(tmp_path)


def test_manifest_not_utf8_is_corruption(tmp_path):
    (tmp_path / "manifest.json").write_bytes(b'[{"name": "\xff"}]')
    with pytest.raises(BundleCorruptionError, match="malformed manifest"):
        read_entries(tmp_path)


VALID_ENTRY = {"name": "w", "rows": 2, "cols": 3, "dtype": "f32", "data": "w.bin"}
READ_ERRORS = (BundleCorruptionError, BundleNotFoundError, ValidationError)


def read_or_reject(root) -> None:
    """Each reader either returns or raises one of the documented bundle errors."""
    for read in (read_entries, read_bundle):
        try:
            read(root)
        except READ_ERRORS:
            pass


@settings(max_examples=150, deadline=None)
@given(manifest=st.binary(max_size=64) | JSON.map(lambda v: json.dumps(v).encode()))
def test_fuzz_arbitrary_manifest(tmp_path_factory, manifest):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "w.bin").write_bytes(np.zeros(6, dtype=np.float32).tobytes())
    (root / "manifest.json").write_bytes(manifest)
    read_or_reject(root)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(sorted(VALID_ENTRY)),
       value=JSON | st.sampled_from([1e300, -1, 0, 6, 2**70, "../w.bin", "w.bin", "/",
                                     ".", "", "f64", "w\x00", "x" * 300]),
       copies=st.integers(1, 2))
def test_fuzz_mutated_entry(tmp_path_factory, field, value, copies):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "w.bin").write_bytes(np.zeros(6, dtype=np.float32).tobytes())
    (root / "manifest.json").write_text(json.dumps([{**VALID_ENTRY, field: value}] * copies))
    read_or_reject(root)


def test_report_csv_json_same_numbers(tmp_path):
    records = [
        {"name": "a", "value": 1.8898815748423097, "count": 3},
        {"name": "b", "value": 0.1, "count": 4},
        {"name": "c", "value": np.float64(0.1), "count": 5},
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
    report = Report(kind="spectra", records=[{"x": 1.5}])
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


class _FullDisk:
    """A report value whose CSV cell cannot be written, as on a full disk."""

    def __str__(self):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fmt, error", [("csv", OSError), ("json", TypeError)])
def test_failed_report_write_keeps_old_report(tmp_path, fmt, error):
    path = tmp_path / f"report.{fmt}"
    Report(kind="metrics", records=[{"name": "old", "value": 1.0}]).write(path, fmt)
    old = path.read_bytes()
    # the second row fails once the first is written
    records = [{"name": "a", "value": 1.0}, {"name": "b", "value": _FullDisk()}]
    with pytest.raises(error):
        Report(kind="metrics", records=records).write(path, fmt)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]  # no temporary file is left


def test_report_write_replaces_old_report(tmp_path):
    path = tmp_path / "report.csv"
    for value in (1.0, 2.5):
        Report(kind="metrics", records=[{"value": value}]).write(path, "csv")
    assert path.read_bytes() == b"value\r\n2.5\r\n"
    assert list(tmp_path.iterdir()) == [path]
