"""Portable serialization of named matrices and tabular reports.

A bundle on disk is a directory with a human-readable ``manifest.json``
listing one entry per matrix (name, rows, cols, dtype, relative data file)
and one raw binary file per matrix. Payloads are row-major little-endian
with no embedded shape metadata; the manifest is the single source of
truth. Supported dtypes are ``f32`` and ``f64``. Round trips are bit-exact,
including the stored dtype; widening of ``f32`` payloads to the library's
``float64`` compute precision happens in :meth:`MatrixBundle.matrix` and
:func:`read_matrix`.

Reports are flat tables of records that serialize to CSV (header row
mandatory, ``.`` decimal separator) or JSON with identical numeric content.
"""

import csv
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BundleCorruptionError,
    BundleNotFoundError,
    UnsupportedFormatError,
    ValidationError,
)

MANIFEST_NAME = "manifest.json"

_DTYPE_CODES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]*$")


def _dtype_code(dtype: np.dtype) -> str:
    if dtype == np.float32:
        return "f32"
    if dtype == np.float64:
        return "f64"
    raise UnsupportedFormatError(f"unsupported matrix dtype {dtype}")


def _check_name(name, taken) -> None:
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise ValidationError(f"invalid entry name {name!r}")
    if name in taken:
        raise ValidationError(f"duplicate entry name {name!r}")


@dataclass
class MatrixBundle:
    """Ordered collection of uniquely named 2-D float matrices."""

    entries: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, name: str, matrix: np.ndarray) -> None:
        """Add a matrix under ``name``. Non-float input is cast to float64."""
        _check_name(name, self.entries)
        arr = np.asarray(matrix)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError(f"entry {name!r} must be a non-empty 2-D matrix")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.entries[name] = arr

    def matrix(self, name: str) -> np.ndarray:
        """Return entry ``name`` widened to float64 for computation.

        A float64 entry of a bundle from :func:`read_bundle` comes back as
        a read-only view of its memory map.
        """
        if name not in self.entries:
            raise KeyError(name)
        return np.asarray(self.entries[name], dtype=np.float64)

    def names(self) -> list[str]:
        return list(self.entries)


def _replace_file(path: Path, payload) -> None:
    """Write ``payload`` to a temporary sibling, then move it over ``path``.

    A reader that memory-mapped the old file keeps the old data: replacing
    swaps the directory entry and leaves the mapped file's contents alone,
    where writing in place would truncate it under the map.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_bundle(path, bundle: MatrixBundle) -> None:
    """Write ``bundle`` to directory ``path`` (created if absent).

    Each file is written to a temporary sibling and moved into place, the
    manifest last, so open :func:`read_bundle` results keep their values.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, arr in bundle.entries.items():
        code = _dtype_code(arr.dtype)
        data_name = f"{name}.bin"
        _replace_file(root / data_name, np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]))
        manifest.append(
            {
                "name": name,
                "rows": int(arr.shape[0]),
                "cols": int(arr.shape[1]),
                "dtype": code,
                "data": data_name,
            }
        )
    text = json.dumps(manifest, indent=2) + "\n"
    _replace_file(root / MANIFEST_NAME, text.encode("utf-8"))


def _read_manifest(root: Path) -> list:
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise BundleNotFoundError(f"no {MANIFEST_NAME} in {root}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BundleCorruptionError(f"malformed manifest in {root}: {exc}") from exc
    if not isinstance(manifest, list):
        raise BundleCorruptionError(f"manifest in {root} is not a list of entries")
    return manifest


def _check_entry(root: Path, entry) -> tuple[str, Path, np.dtype, tuple[int, int]]:
    """Validate one manifest entry against its data file.

    Returns the entry's name, data file, dtype and shape.
    """
    try:
        name = entry["name"]
        rows = int(entry["rows"])
        cols = int(entry["cols"])
        code = entry["dtype"]
        data_name = entry["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleCorruptionError(
            f"manifest entry with missing or bad fields: {entry!r}"
        ) from exc
    if code not in _DTYPE_CODES:
        raise UnsupportedFormatError(f"entry {name!r} declares unknown dtype {code!r}")
    if rows < 1 or cols < 1:
        raise BundleCorruptionError(f"entry {name!r} declares empty shape {rows}x{cols}")
    if not isinstance(data_name, str):
        raise BundleCorruptionError(f"entry {name!r}: data {data_name!r} is not a file name")
    data_path = root / data_name
    if not data_path.resolve().is_relative_to(root.resolve()):
        raise BundleCorruptionError(
            f"entry {name!r}: data file {data_name!r} lies outside {root}"
        )
    if not data_path.is_file():
        raise BundleNotFoundError(f"missing data file {data_path}")
    dtype = _DTYPE_CODES[code]
    size = data_path.stat().st_size
    expected = rows * cols * dtype.itemsize
    if size != expected:
        raise BundleCorruptionError(
            f"entry {name!r}: data file holds {size} bytes, manifest implies {expected}"
        )
    return name, data_path, dtype, (rows, cols)


def _entries(root: Path):
    """Validate the bundle at ``root``; yield ``(name, data file, dtype, shape)``."""
    seen = set()
    for entry in _read_manifest(root):
        name, data_path, dtype, shape = _check_entry(root, entry)
        _check_name(name, seen)
        seen.add(name)
        yield name, data_path, dtype, shape


def read_shapes(path) -> dict[str, tuple[int, int]]:
    """Shape of each entry of the bundle at ``path``, in manifest order.

    Validates the bundle as :func:`read_bundle` does, without opening any
    data file.
    """
    return {name: shape for name, _, _, shape in _entries(Path(path))}


def read_bundle(path) -> MatrixBundle:
    """Read a bundle directory written by :func:`write_bundle`.

    Every entry is validated against its data file, which must lie inside
    the bundle directory, and is memory-mapped read-only: pages are read
    when a matrix is used. Each map holds one file descriptor open, so a
    bundle with more entries than the process may open files cannot be read
    whole; :func:`read_shapes` and :func:`read_matrix` open at most one.
    """
    bundle = MatrixBundle()
    for name, data_path, dtype, shape in _entries(Path(path)):
        bundle.add(name, np.memmap(data_path, dtype=dtype, mode="r", shape=shape))
    return bundle


def read_matrix(path, name: str) -> np.ndarray:
    """Entry ``name`` of the bundle at ``path``, widened to float64.

    Validates and maps only that entry's data file, so the cost of reading
    one matrix hardly grows with the number of entries. A float64 entry
    comes back as a read-only view of its memory map.
    """
    root = Path(path)
    for entry in _read_manifest(root):
        if isinstance(entry, dict) and entry.get("name") == name:
            _, data_path, dtype, shape = _check_entry(root, entry)
            return np.asarray(np.memmap(data_path, dtype=dtype, mode="r", shape=shape),
                              dtype=np.float64)
    raise KeyError(name)


REPORT_KINDS = ("spectra", "ranks", "projections", "metrics")


def _format_value(value) -> str:
    # repr() round-trips floats exactly and always uses "." as separator
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class Report:
    """A flat table of records, e.g. one row per matrix or per component."""

    kind: str
    records: list[dict]

    def __post_init__(self):
        if self.kind not in REPORT_KINDS:
            raise ValidationError(f"unknown report kind {self.kind!r}")

    def _columns(self) -> list[str]:
        if not self.records:
            raise ValidationError("cannot serialize an empty report")
        columns = list(self.records[0])
        for rec in self.records:
            if list(rec) != columns:
                raise ValidationError("all report records must share the same keys")
        return columns

    def to_csv(self, path) -> None:
        columns = self._columns()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for rec in self.records:
                writer.writerow([_format_value(rec[c]) for c in columns])

    def to_json(self, path) -> None:
        self._columns()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": self.kind, "records": self.records}, fh, indent=2)
            fh.write("\n")

    def write(self, path, fmt: str) -> None:
        if fmt == "csv":
            self.to_csv(path)
        elif fmt == "json":
            self.to_json(path)
        else:
            raise ValidationError(f"unknown report format {fmt!r}")
