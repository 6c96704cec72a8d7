"""Batch command-line surface chaining the library modules.

Subcommands: ``spectra`` (singular spectra, effective ranks, residual
projections), ``stm-init`` (adapter initialization from weight/residual
bundles), ``verify`` (seeded property sweeps), ``train-toy`` (synthetic
adaptation experiment against every baseline). ``spectra`` and ``stm-init``
analyze the layers in worker processes, one per usable core, each with one
BLAS thread; their outputs do not depend on the BLAS thread settings. A
worker gets its layer's validated bundle entries, maps only that layer and,
for ``stm-init``, writes that layer's adapter payloads and plan file itself
into a :func:`~rankadapt.tensorio.staged_output` directory, so no process
holds more than one layer. The CLI process adds the manifest there; that
directory replaces the output only once every layer has succeeded. A job
hands its mapped matrices to the library as stored. Workers start with
``_WORKER_ENV``, which also pins glibc's mmap threshold, so that one layer's
large arrays go back to the system before the next layer starts.
``stm-init`` and ``train-toy`` take one STM option, ``--alpha``; a layer with
rank cap ``floor(K/2) = 0`` ends ``stm-init`` before any worker starts. Each
command enters :func:`~rankadapt.tensorio.staged_output` for its ``--output``
before any layer or training step runs, so an ``--output`` that it refuses
ends the command first; an empty ``--output`` is an argument error.

Exit codes are a stable contract: 0 on success, else the ``exit_code`` of
the error that ended the command, from the one table in
:mod:`rankadapt.errors`. Ctrl-C, or SIGTERM while a command runs, unwinds
the command like an error: pending layers are cancelled, running ones
finish, the staging directory goes, and the CLI exits with
``EXIT_INTERRUPTED`` after one ``error: interrupted`` line. Workers are
born with Ctrl-C (SIGINT) blocked, and a worker whose CLI process is gone,
as after a SIGKILL, ends itself at once.

At module level this file imports only the standard library and
:mod:`rankadapt.errors`; each command, worker job and ``verify`` sweep
imports the library names it uses, so ``--help``, an argument error and a
worker process each skip the numpy and package imports they do not need.
The CLI process of ``spectra`` and ``stm-init`` imports no numpy at all:
only the workers compute. So it runs no BLAS thread, and blocking Ctrl-C and
SIGTERM in its one thread is enough to hold them while the workers start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    EXIT_INTERRUPTED,
    EXIT_IO,
    EXIT_PROPERTY,
    EXIT_VALIDATION,
    DegenerateSpectrumError,
    RankadaptError,
    ValidationError,
)

if TYPE_CHECKING:  # names the annotations use
    from .config import StmConfig
    from .tensorio import BundleEntry

EXIT_OK = 0

_TOY_SAMPLES = 64
_TOY_NOISE = 0.01
_ALPHA_HELP = "rank scaling factor applied to the entropy rank"
_REPORT_HELP = "report file to write: JSON if named *.json, else CSV"

# A worker's environment: one BLAS thread, and glibc malloc's mmap threshold
# fixed at its initial 128 KiB, which glibc would otherwise raise each time a
# mapped block is freed; later layers' large arrays would then pile up on the
# heap, and a worker's peak would grow with the layers it runs.
_WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(128 * 1024),
}


def _layer_entries(weights_dir, residuals_dir) -> tuple[dict, list[Path]]:
    """Each layer's validated (weight, residual or None) entries, by sorted name; and the inputs.

    The weight bundle must not be empty, and a residual bundle, if given,
    must hold the same names and shapes. The inputs, the files that no
    output may replace, are each given bundle's manifest and every payload.
    """
    from .tensorio import MANIFEST_NAME, read_entries

    weights = read_entries(weights_dir)
    if not weights:
        raise ValidationError(f"weight bundle {weights_dir} holds no matrices")
    residuals = dict.fromkeys(weights) if residuals_dir is None else read_entries(residuals_dir)
    missing = sorted(set(weights) - set(residuals))
    extra = sorted(set(residuals) - set(weights))
    if missing or extra:
        raise ValidationError(
            f"weight/residual name mismatch: missing residuals {missing}, extra {extra}"
        )
    layers = {name: (weights[name], residuals[name]) for name in sorted(weights)}
    for name, (weight, residual) in layers.items():
        if residual is not None and residual.shape != weight.shape:
            raise ValidationError(f"{name}: residual shape {residual.shape} does not match "
                                  f"factors {weight.shape}")
    files = [Path(d) / MANIFEST_NAME for d in (weights_dir, residuals_dir) if d is not None]
    files += [entry.path for pair in layers.values() for entry in pair if entry is not None]
    return layers, files


def _exit_with_parent() -> None:
    """A worker's initializer: it unblocks SIGTERM and exits once the CLI process is gone.

    A worker is born with SIGINT and SIGTERM blocked. It keeps SIGINT
    blocked, but the pool stops a broken worker with SIGTERM. A parent ended
    by SIGKILL cannot shut its pool down, so the thread waits on the
    sentinel that multiprocessing gives each spawned process, which becomes
    ready the moment the parent ends.
    """
    import signal
    import threading
    from multiprocessing import connection, parent_process

    signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGTERM])

    def watch():
        connection.wait([parent_process().sentinel])
        os._exit(EXIT_INTERRUPTED)

    threading.Thread(target=watch, daemon=True).start()


def _map_layers(job, layers: dict, *args) -> list:
    """``[job(name, *layers[name], *args) for name in layers]``, one worker per usable core.

    Workers are spawned with ``_WORKER_ENV``, so each has one BLAS thread:
    cores are not oversubscribed and results do not depend on the caller's
    BLAS thread settings. The caller's environment is restored after. Layers
    start largest first, so no worker is left alone with a large layer at
    the end. Results are read in ``layers`` order: the first layer in that
    order to fail raises, with its name prefixed to the message, once
    pending jobs are cancelled and every worker has exited.

    Workers block SIGINT and end themselves once the caller is gone. While
    they start, the calling thread blocks SIGINT and SIGTERM, so a stop
    signal waits until every worker has started and is delivered after.
    The mask holds it only in a process with no other thread to take it,
    such as one of numpy's BLAS threads; the CLI process imports no numpy.
    """
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on macOS or Windows
        cores = os.cpu_count() or 1
    # a thin SVD of an m x n weight costs about m * n * min(m, n)
    shapes = {name: weight.shape for name, (weight, _) in layers.items()}
    by_cost = sorted(shapes, key=lambda n: -math.prod(shapes[n]) * min(shapes[n]))
    pool = ProcessPoolExecutor(min(cores, len(layers)),
                               mp_context=multiprocessing.get_context("spawn"),
                               initializer=_exit_with_parent)
    try:
        saved = {var: os.environ.get(var) for var in _WORKER_ENV}
        os.environ.update(_WORKER_ENV)
        # a worker is born with SIGINT blocked, so the CLI process alone decides
        # how the run ends; a signal that cut a worker's start-up short would
        # leave it to fail. The mask is set after the pool exists, since
        # starting multiprocessing's resource tracker unblocks both signals.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT, signal.SIGTERM])
        try:
            # workers start inside submit(), so every one inherits the variables and the mask
            futures = {name: pool.submit(job, name, *layers[name], *args) for name in by_cost}
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a held signal is delivered here
        results = []
        for name in layers:
            try:
                results.append(futures[name].result())
            except (RankadaptError, OSError) as exc:
                raise type(exc)(f"{name}: {exc}") from exc
            except BrokenProcessPool as exc:
                raise OSError(f"a worker process ended abruptly: {exc}") from exc
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _output(text: str) -> str:
    """An ``--output`` value: an empty one, most often an unset shell variable, is refused."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _config(cls, args):
    """Dataclass ``cls`` from the parsed flags named like its fields, which ``cls`` checks."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def spectra_layer(name: str, weight: BundleEntry, residual: BundleEntry | None) -> list[dict]:
    """The ``spectra`` report records of layer ``name``, one per component.

    The weight and residual go to the library as mapped, in their stored dtype.
    """
    from .eranks import entropy_rank, stable_rank
    from .spectral import decompose, project_residual, singular_values

    w = weight.load()
    factors = None if residual is None else decompose(w)  # vectors only to project dW
    sigma = singular_values(w) if factors is None else factors.sigma
    ent = entropy_rank(sigma)
    st = stable_rank(sigma)
    if residual is not None:
        dw = residual.load()
        proj = project_residual(factors, dw)
        del factors  # U and Vt, freed before the residual's SVD
        res_sigma = singular_values(dw)
        try:
            res_ent = entropy_rank(res_sigma)
            res_st = stable_rank(res_sigma)
        except DegenerateSpectrumError:
            res_ent = res_st = "na"  # zero residual is legitimate data
    records = []
    for i in range(len(sigma)):
        rec = {
            "name": name,
            "component": i + 1,
            "sigma": float(sigma[i]),
            "entropy_rank": ent,
            "stable_rank": st,
        }
        if residual is not None:
            rec["residual_sigma"] = float(res_sigma[i])
            rec["projection"] = float(proj[i])
            rec["residual_entropy_rank"] = res_ent
            rec["residual_stable_rank"] = res_st
        records.append(rec)
    return records


def cmd_spectra(args) -> int:
    from .tensorio import Report, staged_output

    layers, inputs = _layer_entries(args.weights, args.residuals)
    with staged_output(args.output, bundle=False, inputs=inputs) as staging:
        per_layer = _map_layers(spectra_layer, layers)
        records = [rec for layer_records in per_layer for rec in layer_records]
        Report(kind="spectra", records=records).write(args.output, staging)
    return EXIT_OK


def stm_init_layer(name: str, weight: BundleEntry, residual: BundleEntry, cfg: StmConfig,
                   out_dir) -> tuple[list[dict], int]:
    """Write the whole adapter of layer ``name`` into directory ``out_dir``.

    The payloads of ``name.W0``, ``name.B`` and ``name.A`` are written with
    :func:`write_entry`, and the plan, with ``cfg``, as ``name.plan.json``.
    Returns the payloads' manifest records and the layer's trainable
    parameter count; no matrix and no plan. The weight and residual go to
    the library as mapped, in their stored dtype; widening into ``W0`` is exact.
    """
    from .adapter import trainable_param_count
    from .spectral import decompose
    from .stm import select_directions, select_rank, split_factors, split_weight
    from .tensorio import write_entry

    w = weight.load()
    factors = decompose(w)
    # the residual stays as stored until the projection, after the SVD
    selected = select_directions(factors, residual.load(), select_rank(factors.sigma, cfg))
    split = split_factors(factors, selected)
    del factors  # U and Vt, freed before W0 is computed
    layer = split_weight(w, split)
    records = [write_entry(out_dir, f"{name}.{part}", matrix)
               for part, matrix in (("W0", layer.w0), ("B", layer.b), ("A", layer.a))]
    with open(Path(out_dir) / f"{name}.plan.json", "x", encoding="utf-8") as fh:
        json.dump({"name": name, **layer.plan.to_dict(), "config": asdict(cfg)}, fh, indent=2)
        fh.write("\n")
    return records, trainable_param_count([layer])


def cmd_stm_init(args) -> int:
    from .config import StmConfig, max_rank
    from .tensorio import staged_output, write_manifest

    layers, inputs = _layer_entries(args.weights, args.residuals)
    cfg = _config(StmConfig, args)
    for name, (weight, _) in layers.items():
        try:
            max_rank(min(weight.shape))
        except ValidationError as exc:
            raise ValidationError(f"{name}: {exc}") from exc
    with staged_output(args.output, bundle=True, inputs=inputs) as out:
        results = _map_layers(stm_init_layer, layers, cfg, out)
        write_manifest(out, [record for records, _ in results for record in records])
    print(f"trainable parameters: {sum(count for _, count in results)}")
    return EXIT_OK


def _verify_lemma(seed: int, trials: int):
    import numpy as np

    from .eranks import entropy_rank, stable_rank
    from .spectral import singular_values

    shapes = [(4, 4), (8, 16), (32, 32), (64, 128)]
    rng = np.random.default_rng(seed)
    for t in range(trials):
        m, n = shapes[t % len(shapes)]
        k = min(m, n)
        family = t % 3
        if family == 0:
            sigma = singular_values(rng.standard_normal((m, n)))
        elif family == 1:
            ratio = rng.uniform(0.2, 0.98)
            sigma = ratio ** np.arange(k)
        else:
            sigma = np.full(k, 1e-4)
            sigma[0] = 1.0
        st = stable_rank(sigma)
        ent = entropy_rank(sigma)
        if not st <= ent + 1e-9:
            return ("rank_ordering", False,
                    f"trial {t} (seed {seed}): stable {st:.9f} vs entropy {ent:.9f}")
    return ("rank_ordering", True, f"{trials} trials")


def _verify_layers(seed: int) -> list[tuple]:
    """Init exactness, zero penalty at init and, on the first layers, the penalty gradient."""
    import numpy as np

    from . import harness
    from .adapter import merge
    from .spectral import decompose
    from .stm import maintaining_penalty, maintaining_penalty_grad, split_factors, split_weight

    counts = {"init_exactness": 100, "zero_penalty_at_init": 100, "penalty_gradient": 25}
    failures = {}  # the detail of each property's first failure
    shapes = [(8, 8), (16, 8), (8, 16), (32, 16)]
    rng, perturb = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    for t in range(counts["init_exactness"]):
        m, n = shapes[t % len(shapes)]
        k = min(m, n)
        w = rng.standard_normal((m, n))
        r = int(rng.integers(1, max(2, k // 2)))
        selected = sorted(int(i) + 1 for i in rng.choice(k, size=r, replace=False))
        layer = split_weight(w, split_factors(decompose(w), selected))
        err = np.linalg.norm(merge(layer) - w) / np.linalg.norm(w)
        if err > 1e-10:
            failures.setdefault("init_exactness", f"trial {t} (seed {seed}): residual {err:.3e}")
        penalty = maintaining_penalty([layer])
        if penalty > 1e-9:
            failures.setdefault("zero_penalty_at_init",
                                f"trial {t} (seed {seed}): penalty {penalty:.3e}")
        if t < counts["penalty_gradient"]:
            layer = replace(layer, b=layer.b + 0.2 * perturb.standard_normal(layer.b.shape),
                            a=layer.a + 0.2 * perturb.standard_normal(layer.a.shape))
            grad_b, grad_a = maintaining_penalty_grad(layer)
            err_b = harness.finite_difference_check(
                lambda b: maintaining_penalty([replace(layer, b=b)]), layer.b, grad_b)
            err_a = harness.finite_difference_check(
                lambda a: maintaining_penalty([replace(layer, a=a)]), layer.a, grad_a)
            err = max(err_b, err_a)
            if err > 1e-4:
                failures.setdefault("penalty_gradient",
                                    f"trial {t} (seed {seed}): max error {err:.3e}")
    return [(name, name not in failures, failures.get(name, f"{count} layers"))
            for name, count in counts.items()]


def _verify_task_gradient(seed: int, count: int):
    from . import harness

    for t in range(count):
        model = harness.make_synthetic_model(
            [(6, 5, 0.6), (4, 6, 0.9)], seed=seed + 17 * t, activation="tanh")
        task = harness.make_proxy_task(
            model, [None, None], n_samples=12, noise=0.1, seed=seed + 17 * t + 1)
        weights = [w + 0.1 for w in model.layers]
        _, grads = harness.mse_and_grads(weights, "tanh", task.inputs, task.targets)
        for li in range(len(weights)):
            def loss_of(wl, li=li):
                trial = [wl if j == li else weights[j] for j in range(len(weights))]
                return harness.mse_and_grads(trial, "tanh", task.inputs, task.targets)[0]

            err = harness.finite_difference_check(loss_of, weights[li], grads[li])
            if err > 1e-5:
                return ("task_gradient", False,
                        f"trial {t} layer {li} (seed {seed}): error {err:.3e}")
    return ("task_gradient", True, f"{count} models")


def cmd_verify(args) -> int:
    results = [_verify_lemma(args.seed, 1000), *_verify_layers(args.seed),
               _verify_task_gradient(args.seed, 5)]
    failed = False
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return EXIT_PROPERTY if failed else EXIT_OK


def cmd_train_toy(args) -> int:
    from . import harness
    from .stm import StmConfig
    from .tensorio import staged_output

    # a sharp shallow layer and a flat deep layer, each with two planted task
    # directions well above the noise
    model = harness.make_synthetic_model([(20, 16, 0.55), (12, 20, 0.85)], seed=args.seed)
    planted = [
        harness.PlantedDirections(indices=(3, 6), amplitudes=(0.9, 0.7)),
        harness.PlantedDirections(indices=(4, 8), amplitudes=(0.8, 0.6)),
    ]
    task = harness.make_proxy_task(model, planted, n_samples=_TOY_SAMPLES,
                                   noise=_TOY_NOISE, seed=args.seed + 1)
    with staged_output(args.output, bundle=False) as staging:
        report = harness.run_stm_experiment(model, task, _config(StmConfig, args),
                                            _config(harness.TrainConfig, args),
                                            reg_weight=args.reg_weight)
        report.write(args.output, staging)
    print(f"wrote {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankadapt",
        description="Spectral audits and adaptive low-rank initialization of weight bundles",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectra", help="singular spectra, effective ranks, projections")
    p.add_argument("--weights", required=True, help="bundle directory of weight matrices")
    p.add_argument("--residuals", help="optional bundle of residuals with matching names")
    p.add_argument("--output", type=_output, required=True, help=_REPORT_HELP)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("stm-init", help="initialize adapters from weight and residual bundles")
    p.add_argument("--weights", required=True)
    p.add_argument("--residuals", required=True)
    p.add_argument("--output", type=_output, required=True, help="output bundle directory")
    p.add_argument("--alpha", type=float, required=True, help=_ALPHA_HELP)
    p.set_defaults(func=cmd_stm_init)

    p = sub.add_parser("verify", help="run the seeded property sweeps")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train-toy", help="synthetic adaptation experiment against every baseline")
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--reg-weight", type=float, default=0.0)
    p.add_argument("--output", type=_output, required=True, help=_REPORT_HELP)
    p.add_argument("--alpha", type=float, default=0.4, help=_ALPHA_HELP)
    p.set_defaults(func=cmd_train_toy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    import signal  # after parsing, so --help and an argument error skip it

    # SIGTERM unwinds like Ctrl-C, through the blocks that cancel pending
    # layers and remove a staging directory
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return args.func(args)
    except (RankadaptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_IO)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
