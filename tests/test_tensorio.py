import csv
import json
import os
from pathlib import Path

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
    staged_output,
    write_bundle,
    write_manifest,
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


@pytest.mark.parametrize("matrix", [
    np.arange(4).astype("datetime64[D]").reshape(2, 2),  # was stored as day counts
    np.array([[1.0, None], [2.0, 3.0]], dtype=object),  # was stored with a NaN
    np.array([["1", "2"], ["3", "4"]]),
], ids=["datetime64", "object", "str"])
def test_non_real_matrix_rejected_and_old_bundle_kept(tmp_path, matrix):
    write_bundle(tmp_path / "bundle", {"w": np.ones((2, 2))})
    old = {p.name: p.read_bytes() for p in (tmp_path / "bundle").iterdir()}
    with pytest.raises(ValidationError, match="must be real"):
        write_bundle(tmp_path / "bundle", {"w": np.ones((2, 2)), "x": matrix})
    assert {p.name: p.read_bytes() for p in (tmp_path / "bundle").iterdir()} == old
    assert list(tmp_path.iterdir()) == [tmp_path / "bundle"]


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


KINDS = pytest.mark.parametrize("bundle", [True, False], ids=["bundle", "report"])


def stage_text(path, bundle, text, **kwargs):
    """Replace the output at ``path`` with ``text``: a bundle's note file or a report."""
    with staged_output(path, bundle=bundle, **kwargs) as staging:
        assert staging.parent == Path(path).resolve().parent
        assert staging.name == f".{Path(path).resolve().name}.staging-{os.getpid()}"
        assert staging.is_dir() is bundle and not staging.is_file()
        if bundle:
            write_manifest(staging, [])
        (staging / "note.txt" if bundle else staging).write_text(text)


def staged_text(path, bundle):
    return (Path(path) / "note.txt" if bundle else Path(path)).read_text()


@KINDS
def test_staged_output_replaces_on_a_clean_exit_only(tmp_path, bundle):
    out = tmp_path / "out"
    stage_text(out, bundle, "old")
    with pytest.raises(KeyError):
        with staged_output(out, bundle=bundle) as staging:
            (staging / "note.txt" if bundle else staging).write_text("lost")
            raise KeyError("lost")
    assert staged_text(out, bundle) == "old"
    stage_text(out, bundle, "new")
    assert staged_text(out, bundle) == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no staging or old copy is left


@KINDS
def test_staged_output_replaces_a_symlinks_target(tmp_path, bundle):
    link = tmp_path / "latest"
    link.symlink_to("run")
    for text in ("old", "new"):  # a new target, then the old one replaced
        stage_text(link, bundle, text)
        assert os.readlink(link) == "run"
        assert staged_text(tmp_path / "run", bundle) == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latest", "run"]


@KINDS
@pytest.mark.parametrize("name", ["loop", "loop/out"])
def test_staged_output_symlink_loop_is_a_validation_error(tmp_path, bundle, name):
    (tmp_path / "loop").symlink_to("loop")
    with pytest.raises(ValidationError, match="leads into a symlink loop; not replacing it"):
        stage_text(tmp_path / name, bundle, "never")
    assert [p.name for p in tmp_path.iterdir()] == ["loop"]


@pytest.fixture
def resolve_as_in_python_3_13(monkeypatch):
    """``Path.resolve`` as Python 3.13 has it: a symlink loop stays in the path, nothing raises."""
    monkeypatch.setattr(Path, "resolve",
                        lambda self, strict=False: Path(os.path.realpath(self, strict=strict)))


@KINDS
@pytest.mark.parametrize("name", ["loop", "loop/out"])
def test_staged_output_symlink_loop_when_resolve_does_not_raise(tmp_path, bundle, name,
                                                                resolve_as_in_python_3_13):
    test_staged_output_symlink_loop_is_a_validation_error(tmp_path, bundle, name)


@KINDS
@pytest.mark.parametrize("target", ["w", "w/manifest.json", "w/a.bin", ".", "missing/../w"])
def test_staged_output_refuses_an_input(tmp_path, bundle, target):
    write_bundle(tmp_path / "w", {"a": np.ones((2, 2))})
    inputs = [tmp_path / "w" / "manifest.json", tmp_path / "w" / "a.bin"]
    before = {p: p.read_bytes() for p in inputs}
    with pytest.raises(ValidationError, match="must not be or hold a file"):
        stage_text(f"{tmp_path}/{target}", bundle, "never", inputs=inputs)
    assert {p: p.read_bytes() for p in inputs} == before
    assert [p.name for p in tmp_path.iterdir()] == ["w"]


@pytest.mark.parametrize("bundle, kind, error, match", [
    (True, "file", ValidationError, "is not a directory; not replacing it"),
    (True, "notes", ValidationError, "is not empty and holds no bundle; not replacing it"),
    (False, "notes", ValidationError, "is a directory; not replacing it"),
    (False, "empty", ValidationError, "is a directory; not replacing it"),
    (False, "missing/out", FileNotFoundError, "No such directory"),
], ids=["bundle-file", "bundle-notes", "report-notes", "report-empty", "report-missing"])
def test_staged_output_refuses_a_wrong_kind(tmp_path, bundle, kind, error, match):
    (tmp_path / "file").write_text("keep")
    (tmp_path / "notes").mkdir()
    (tmp_path / "notes" / "todo.txt").write_text("keep")
    (tmp_path / "empty").mkdir()
    with pytest.raises(error, match=match):
        stage_text(tmp_path / kind, bundle, "never")
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "empty", "file", "notes", "notes/todo.txt"]
    assert (tmp_path / "file").read_text() == (tmp_path / "notes" / "todo.txt").read_text()


def test_write_bundle_in_missing_directory_creates_none(tmp_path):
    with pytest.raises(FileNotFoundError, match="No such directory"):
        write_bundle(tmp_path / "x" / "y" / "out", {"a": np.ones((2, 2))})
    assert list(tmp_path.iterdir()) == []


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


def test_data_symlink_loop_when_resolve_does_not_raise(tmp_path, resolve_as_in_python_3_13):
    test_data_symlink_loop_is_corruption(tmp_path)


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
        {"name": "d", "value": np.float32(0.1), "count": np.int64(6)},
    ]
    report = Report(kind="metrics", records=records)
    report.write(tmp_path / "r.csv")
    report.write(tmp_path / "r.json")

    with open(tmp_path / "r.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    loaded = json.loads((tmp_path / "r.json").read_text())
    assert loaded["kind"] == "metrics"
    for csv_row, json_row, orig in zip(rows, loaded["records"], records):
        assert float(csv_row["value"]) == json_row["value"] == orig["value"]
        assert int(csv_row["count"]) == json_row["count"] == orig["count"]
    # a float32 is written as the float it holds, not as the shortest float32 repr
    assert rows[3]["value"] == repr(float(np.float32(0.1)))


def test_report_header_row_mandatory(tmp_path):
    report = Report(kind="spectra", records=[{"x": 1.5}])
    report.write(tmp_path / "r.csv")
    first = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert first == "x"


def test_report_validation():
    with pytest.raises(ValidationError):
        Report(kind="bogus", records=[])
    with pytest.raises(ValidationError):
        Report(kind="metrics", records=[]).write("/dev/null")
    with pytest.raises(ValidationError):
        Report(kind="metrics", records=[{"a": 1}, {"b": 2}]).write("/dev/null")


class _FullDisk:
    """A report value whose CSV cell cannot be written, as on a full disk."""

    def __str__(self):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fmt, error", [("csv", OSError), ("json", TypeError)])
def test_failed_report_write_keeps_old_report(tmp_path, fmt, error):
    path = tmp_path / f"report.{fmt}"
    Report(kind="metrics", records=[{"name": "old", "value": 1.0}]).write(path)
    old = path.read_bytes()
    # the second row fails once the first is written
    records = [{"name": "a", "value": 1.0}, {"name": "b", "value": _FullDisk()}]
    with pytest.raises(error):
        Report(kind="metrics", records=records).write(path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]  # no temporary file is left


def test_report_write_replaces_old_report(tmp_path):
    path = tmp_path / "report.csv"
    for value in (1.0, 2.5):
        Report(kind="metrics", records=[{"value": value}]).write(path)
    assert path.read_bytes() == b"value\r\n2.5\r\n"
    assert list(tmp_path.iterdir()) == [path]
