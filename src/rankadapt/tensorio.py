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
widened copy exists. Only :func:`write_entry` and :meth:`BundleEntry.load`,
which run in the worker processes of ``spectra`` and ``stm-init``, import
numpy; the rest of this module, which the CLI process runs, does not.

Every output, bundle or report, is replaced through :func:`staged_output`,
the one place that decides whether and where: it reads the path as it
resolves, refuses a target that is, or holds, an input file or is of the
wrong kind, and then swaps a complete staged copy in by rename, so the old
output stays intact until the new one is complete and none of its files
outlive it. A bundle is written whole into the fresh directory that
``staged_output(path, bundle=True)`` yields. There, :func:`write_entry`
writes one payload and returns its manifest record, and
:func:`write_manifest` writes the manifest that makes the payloads a
bundle. :func:`write_bundle` chains them; a writer that produces entries
elsewhere, such as one worker process per layer, calls them itself.

Reports are flat tables of records that serialize to CSV (header row
mandatory, ``.`` decimal separator) or JSON with identical numeric content;
a file named ``*.json`` gets JSON, any other gets CSV.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
import re
import shutil
import stat
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    BundleCorruptionError,
    BundleNotFoundError,
    UnsupportedFormatError,
    ValidationError,
)

if TYPE_CHECKING:  # names the annotations use
    import numpy as np

MANIFEST_NAME = "manifest.json"

# each manifest dtype code, as the numpy type string of its payloads
_DTYPE_CODES = {"f32": "<f4", "f64": "<f8"}
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]*$")


def _check_name(name, taken=()) -> None:
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise ValidationError(f"invalid entry name {name!r}")
    if name in taken:
        raise ValidationError(f"duplicate entry name {name!r}")


def write_entry(path, name: str, matrix: np.ndarray) -> dict:
    """Write ``matrix`` as the payload of entry ``name`` in directory ``path``.

    Returns the entry's manifest record, for :func:`write_manifest`. The
    payload must not exist yet, as in the directory of a bundle's
    :func:`staged_output`. The entry is not readable until a manifest lists
    it. A non-real matrix raises ``ValidationError``.
    """
    import numpy as np  # here, so that reading a bundle loads no numpy

    from .spectral import as_real_array

    _check_name(name)
    arr = as_real_array(matrix, f"entry {name!r}")
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"entry {name!r} must be a non-empty 2-D matrix")
    code = "f32" if arr.dtype.kind == "f" and arr.dtype.itemsize == 4 else "f64"  # either order
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
def staged_output(path, *, bundle: bool, inputs=()):
    """Yield a staging path that replaces the output at ``path`` by rename on a clean exit.

    ``path`` is read once, as ``os.path.realpath(path)``: an output reached
    through a symlink replaces the link's target, and a symlink loop raises
    ``ValidationError``, as does a target that is, or holds, an ``inputs``
    file. A bundle (``bundle=True``) replaces nothing, an empty directory or
    a bundle, and is staged in a fresh directory. A report replaces anything
    but a directory, and is staged in a file the block writes. Either must
    go in a directory that exists, else ``FileNotFoundError``, so a failed
    write creates no directory. The staging path is the sibling
    ``.<name>.staging-<pid>``; an old bundle is renamed aside to
    ``.<name>.old-<pid>`` and removed after the swap. The staging path goes
    however the block ends; a block that raises, or a failed swap, leaves
    ``path`` as it was.
    """
    root = Path(os.path.realpath(path))  # a symlink loop is left in the path, for stat to meet
    try:
        target = os.stat(root)
    except (FileNotFoundError, NotADirectoryError):
        target = None
    except OSError as exc:
        if exc.errno != errno.ELOOP:
            raise
        raise ValidationError(f"{path} leads into a symlink loop; not replacing it") from exc
    if target is not None:
        files = [Path(os.path.realpath(f)) for f in inputs]
        held = {p for f in files for p in (f, *f.parents)}
        if any(os.path.samestat(target, os.stat(p)) for p in held):
            raise ValidationError(
                "--output must not be or hold a file of the weight or residual bundle")
    is_dir = target is not None and stat.S_ISDIR(target.st_mode)
    if bundle:
        if target is not None and not is_dir:
            raise ValidationError(f"{root} is not a directory; not replacing it")
        if is_dir and not (root / MANIFEST_NAME).is_file() and any(root.iterdir()):
            raise ValidationError(f"{root} is not empty and holds no bundle; not replacing it")
    elif is_dir:
        raise ValidationError(f"{root} is a directory; not replacing it")
    if not root.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "No such directory", str(root.parent))
    staging = root.with_name(f".{root.name}.staging-{os.getpid()}")
    old = root.with_name(f".{root.name}.old-{os.getpid()}")
    if bundle:
        staging.mkdir()
    try:
        yield staging
        replacing = bundle and root.exists()  # a report's rename replaces the old file itself
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
        if bundle:
            shutil.rmtree(staging, ignore_errors=True)
        else:
            staging.unlink(missing_ok=True)


def write_bundle(path, matrices) -> None:
    """Write the mapping ``matrices`` of name to matrix to directory ``path``.

    Entries are written in the mapping's order through :func:`staged_output`
    and :func:`write_entry`, so a bad name or matrix raises before anything
    replaces ``path``. A write that fails leaves the old bundle, if any, as
    it was; open :func:`read_bundle` results keep their values either way.
    """
    with staged_output(path, bundle=True) as root:
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
    dtype: str  # a value of _DTYPE_CODES, such as "<f4"
    shape: tuple[int, int]

    def _check_payload(self) -> None:
        if not self.path.is_file():
            raise BundleNotFoundError(f"missing data file {self.path}")
        size = self.path.stat().st_size
        expected = math.prod(self.shape) * int(self.dtype[2:])  # "<f4" takes 4 bytes
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
        import numpy as np

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
            inside = Path(os.path.realpath(entry.path)).is_relative_to(os.path.realpath(root))
            os.stat(entry.path)  # raises on a name the system cannot look up
        except (FileNotFoundError, NotADirectoryError):
            pass  # a missing payload is reported below
        except (OSError, ValueError) as exc:  # too long, NUL, symlink loop
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

    def _records(self) -> list[dict]:
        """The records, checked, with each numpy scalar as the Python number it holds."""
        if not self.records:
            raise ValidationError("cannot serialize an empty report")
        columns = list(self.records[0])
        if any(list(rec) != columns for rec in self.records):
            raise ValidationError("all report records must share the same keys")
        np = sys.modules.get("numpy")  # no record holds a numpy scalar before numpy is loaded
        generic = () if np is None else np.generic
        return [{k: v.item() if isinstance(v, generic) else v for k, v in rec.items()}
                for rec in self.records]

    def write(self, path, staging=None) -> None:
        """Write the report to ``path``: JSON if it is named ``*.json``, else CSV.

        It goes through :func:`staged_output`, unless the caller has entered
        one for ``path`` already and passes its staging file as ``staging``.
        """
        records = self._records()
        staged = staged_output(path, bundle=False) if staging is None else nullcontext(staging)
        with staged as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
            if Path(path).suffix != ".json":  # CSV, each float as its shortest exact repr
                writer = csv.writer(fh)
                writer.writerow(records[0].keys())
                writer.writerows(rec.values() for rec in records)
            else:
                json.dump({"kind": self.kind, "records": records}, fh, indent=2)
                fh.write("\n")
