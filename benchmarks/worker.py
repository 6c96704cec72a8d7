"""The benchmark's numpy work, run in its own process.

``bench_pipeline.py`` never imports numpy. A child's peak RSS, as
``os.wait4`` reports it, includes the peak RSS of the process that spawned
it, so that process must stay small for ``peak_rss_mb`` to measure the
command alone.

Usage::

    python3 worker.py prepare WORKLOAD SEED WORK_DIR
    python3 worker.py check WORKLOAD WORK_DIR OUTPUT STDOUT_FILE [OUTPUT STDOUT_FILE ...]

``prepare`` writes the inputs and ``reference.json`` under ``WORK_DIR`` and
prints the run header, the bundle paths and the layer shapes as JSON.
``check`` prints one JSON list of problems per output, in order.
"""

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

import checks
import inputs

BUNDLE_WORKLOADS = ("stm_init_mixed", "spectra_residuals")


def bundle_dirs(work: Path) -> tuple[Path, Path]:
    return work / "W", work / "dW"


def run_header() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps["lapack"].get(k) for k in ("name", "version")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def prepare(workload: str, seed: int, work: Path) -> None:
    prepared = {"header": run_header()}
    if workload in BUNDLE_WORKLOADS:
        w_dir, dw_dir = bundle_dirs(work)
        inputs.make_bundles(w_dir, dw_dir, seed)
        ref = checks.reference(w_dir, dw_dir, residual_sigma=workload == "spectra_residuals")
        (work / "reference.json").write_text(json.dumps(ref))
        prepared.update(weights=str(w_dir), residuals=str(dw_dir),
                        shapes=[e["shape"] for e in ref.values()])
    print(json.dumps(prepared))


def check(workload: str, work: Path, output: Path, stdout: str) -> list[str]:
    if workload == "train_toy_long":
        return checks.check_train_toy(output)
    ref = json.loads((work / "reference.json").read_text())
    if workload == "stm_init_mixed":
        return checks.check_stm_init(output, stdout, bundle_dirs(work)[0], ref)
    return checks.check_spectra(output, ref)


def main(argv) -> int:
    command, workload, *rest = argv
    if command == "prepare":
        prepare(workload, int(rest[0]), Path(rest[1]))
    elif command == "check":
        work, pairs = Path(rest[0]), rest[1:]
        for output, stdout_file in zip(pairs[::2], pairs[1::2]):
            problems = check(workload, work, Path(output), Path(stdout_file).read_text())
            print(json.dumps(problems))
    else:
        raise SystemExit(f"unknown command {command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
