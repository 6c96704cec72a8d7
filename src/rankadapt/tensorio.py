"""Portable serialization of named matrices and tabular reports.

A bundle on disk is a directory with a human-readable ``manifest.json``
listing one entry per matrix (name, rows, cols, dtype, relative data file)
and one raw binary file per matrix. Payloads are row-major little-endian
with no embedded shape metadata; the manifest is the single source of
truth. Supported dtypes are ``f32`` and ``f64``. Round trips are bit-exact,
including the stored dtype. :func:`read_entries` is the one validator of a
manifest; each :class:`BundleEntry` it returns holds no open file, and its
:meth:`~BundleEntry.load` maps the payload as stored. In memory a bundle
is a plain ``{name: matrix}`` dict. Widening of ``f32`` payloads to the
library's ``float64`` compute precision happens in the numerical functions
that receive a matrix, so a caller that reads an entry decides when its
widened copy exists.

A bundle is written whole into the fresh directory of :func:`staged_bundle`,
which then replaces the old bundle by rename, so the old one stays intact
until the new one is complete and none of its files outlive it. There,
:func:`write_entry` writes one payload and returns its manifest record, and
:func:`write_manifest` writes the manifest that makes the payloads a
bundle. :func:`write_bundle` chains them; a writer that produces entries
elsewhere, such as one worker process per layer, calls them itself.

Reports are flat tables of records that serialize to CSV (header row
mandatory, ``.`` decimal separator) or JSON with identical numeric content.
"""

import csv
import json
import math
import os
import re
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
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
    """The code a matrix of ``dtype`` is stored as.

    A 32-bit float matrix, in either byte order, is stored as ``f32``;
    64-bit floats and every other real dtype become ``f64``. A complex
    matrix raises ``ValidationError``: storing it would drop its imaginary
    part.
    """
    if dtype.kind == "c":
        raise ValidationError(f"complex matrices cannot be stored, got dtype {dtype}")
    return "f32" if dtype.kind == "f" and dtype.itemsize == 4 else "f64"


def _check_name(name, taken=()) -> None:
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise ValidationError(f"invalid entry name {name!r}")
    if name in taken:
        raise ValidationError(f"duplicate entry name {name!r}")


def write_entry(path, name: str, matrix: np.ndarray) -> dict:
    """Write ``matrix`` as the payload of entry ``name`` in directory ``path``.

    Returns the entry's manifest record, for :func:`write_manifest`. The
    payload must not exist yet, as in a directory from :func:`staged_bundle`.
    The entry is not readable until a manifest lists it.
    """
    _check_name(name)
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"entry {name!r} must be a non-empty 2-D matrix")
    code = _dtype_code(arr.dtype)
    payload = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code])
    data_name = f"{name}.bin"
    with open(Path(path) / data_name, "xb") as fh:
        fh.write(payload)
    return {
        "name": name,
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "dtype": code,
        "data": data_name,
    }


def write_manifest(path, records: list[dict]) -> None:
    """Write the manifest of directory ``path``, listing ``records`` in order."""
    (Path(path) / MANIFEST_NAME).write_bytes((json.dumps(records, indent=2) + "\n").encode())


@contextmanager
def staged_bundle(path):
    """Yield a fresh directory that replaces the bundle at ``path`` on a clean exit.

    It is the sibling ``.<name>.staging-<pid>``, so the swap is a rename on
    one filesystem: ``path``, if present, is renamed aside to
    ``.<name>.old-<pid>`` and removed once the staging directory has taken
    its place. A block that raises or a swap that fails leaves ``path`` as
    it was, and no staging directory. A ``path`` that is not a directory, or
    a non-empty one without a manifest, raises ``ValidationError`` at once,
    so no user file is replaced.
    """
    root = Path(path).resolve()
    if root.exists() and not root.is_dir():
        raise ValidationError(f"{root} is not a directory; not replacing it")
    if root.exists() and not (root / MANIFEST_NAME).is_file() and any(root.iterdir()):
        raise ValidationError(f"{root} is not empty and holds no bundle; not replacing it")
    staging = root.with_name(f".{root.name}.staging-{os.getpid()}")
    old = root.with_name(f".{root.name}.old-{os.getpid()}")
    staging.mkdir(parents=True)
    try:
        yield staging
        replacing = root.exists()
        if replacing:
            os.rename(root, old)
        try:
            os.rename(staging, root)
        except BaseException:
            if replacing:
                os.rename(old, root)
            raise
        shutil.rmtree(old, ignore_errors=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def write_bundle(path, matrices) -> None:
    """Write the mapping ``matrices`` of name to matrix to directory ``path``.

    Entries are written in the mapping's order through :func:`staged_bundle`
    and :func:`write_entry`, so a bad name or matrix raises before anything
    replaces ``path``. A write that fails leaves the old bundle, if any, as
    it was; open :func:`read_bundle` results keep their values either way.
    """
    with staged_bundle(path) as root:
        write_manifest(root, [write_entry(root, name, arr) for name, arr in matrices.items()])


def _read_manifest(root: Path) -> list:
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise BundleNotFoundError(f"no {MANIFEST_NAME} in {root}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSON or UTF-8 errors, or nesting too deep
        raise BundleCorruptionError(f"malformed manifest in {root}: {exc}") from exc
    if not isinstance(manifest, list):
        raise BundleCorruptionError(f"manifest in {root} is not a list of entries")
    return manifest


@dataclass(frozen=True)
class BundleEntry:
    """One validated manifest entry: its data file, dtype and shape.

    It holds no open file, so it pickles to a worker process that loads it.
    """

    path: Path
    dtype: np.dtype
    shape: tuple[int, int]

    def _check_payload(self) -> None:
        if not self.path.is_file():
            raise BundleNotFoundError(f"missing data file {self.path}")
        size = self.path.stat().st_size
        expected = math.prod(self.shape) * self.dtype.itemsize
        if size != expected:
            raise BundleCorruptionError(
                f"data file {self.path} holds {size} bytes, manifest implies {expected}"
            )

    def load(self) -> np.memmap:
        """The payload as stored, memory-mapped read-only.

        The data file is checked again first, since it may have changed
        after :func:`read_entries`. Nothing is widened or copied here: an
        ``f32`` entry stays float32 until numerical code widens it.
        """
        self._check_payload()
        return np.memmap(self.path, dtype=self.dtype, mode="r", shape=self.shape)


def read_entries(path) -> dict[str, BundleEntry]:
    """Validate the bundle at ``path``; its entries by name, in manifest order.

    This is the one check of a manifest: names, fields, dtypes, confinement
    of every data file to the bundle directory and payload sizes. No data
    file is opened; :meth:`BundleEntry.load` maps one.
    """
    root = Path(path)
    entries = {}
    for record in _read_manifest(root):
        try:
            name, rows, cols, code, data_name = (
                record[key] for key in ("name", "rows", "cols", "dtype", "data"))
        except (KeyError, TypeError) as exc:
            raise BundleCorruptionError(f"manifest entry with missing fields: {record!r}") from exc
        _check_name(name, entries)
        if not all(type(n) is int and n >= 1 for n in (rows, cols)):  # no bool, float or str
            raise BundleCorruptionError(
                f"entry {name!r}: rows and cols must be positive integers, got {rows!r}, {cols!r}")
        if not isinstance(code, str):
            raise BundleCorruptionError(f"entry {name!r}: dtype {code!r} is not a dtype code")
        if code not in _DTYPE_CODES:
            raise UnsupportedFormatError(f"entry {name!r} declares unknown dtype {code!r}")
        if not isinstance(data_name, str):
            raise BundleCorruptionError(f"entry {name!r}: data {data_name!r} is not a file name")
        entry = BundleEntry(root / data_name, _DTYPE_CODES[code], (rows, cols))
        try:
            inside = entry.path.resolve().is_relative_to(root.resolve())
            entry.path.is_file()  # raises on a name the system cannot look up
        except (OSError, ValueError, RuntimeError) as exc:  # too long, NUL, symlink loop
            raise BundleCorruptionError(
                f"entry {name!r}: unusable data file name {data_name!r}: {exc}") from exc
        if not inside:
            raise BundleCorruptionError(
                f"entry {name!r}: data file {data_name!r} lies outside {root}")
        entry._check_payload()
        entries[name] = entry
    return entries


def read_bundle(path) -> dict[str, np.memmap]:
    """Read a bundle directory written by :func:`write_bundle`.

    Returns ``{name: matrix}`` in manifest order. Every entry is validated
    by :func:`read_entries` and memory-mapped read-only as stored, so an
    ``f32`` entry stays float32; pages are read when a matrix is used. Each
    map holds one file descriptor open until it is dropped, so the matrices
    keep their values if the directory is rewritten meanwhile; a bundle with
    more entries than the process may open files is read one
    :meth:`BundleEntry.load` at a time instead.
    """
    return {name: entry.load() for name, entry in read_entries(path).items()}


REPORT_KINDS = ("spectra", "metrics")


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
            # csv writes a float, numpy's too, in its shortest round-tripping form
            writer.writerows([rec[c] for c in columns] for rec in self.records)

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
