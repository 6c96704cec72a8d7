"""Batch command-line surface chaining the library modules.

Subcommands: ``spectra`` (singular spectra, effective ranks, residual
projections), ``stm-init`` (adapter initialization from weight/residual
bundles), ``verify`` (seeded property sweeps), ``train-toy`` (synthetic
adaptation experiment against a baseline). ``spectra`` and ``stm-init``
analyze the layers in worker processes, one per usable core, each with one
BLAS thread; their outputs do not depend on the BLAS thread settings. A
worker gets its layer's validated bundle entries, maps only that layer and,
for ``stm-init``, writes that layer's adapter payloads itself into a
:func:`~rankadapt.tensorio.staged_bundle` directory, so no process holds
more than one layer. The CLI process adds the plan files and the manifest
there; that directory replaces the output only once every layer has
succeeded.

Exit codes are a stable contract: 0 success, 1 I/O, 2 validation,
3 property failure, 4 training divergence.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import harness
from .adapter import merge
from .eranks import check_gamma, entropy_rank, stable_rank
from .errors import (
    BundleCorruptionError,
    BundleNotFoundError,
    DegenerateSpectrumError,
    NumericError,
    TrainingDivergedError,
    ValidationError,
)
from .spectral import decompose, project_residual, singular_values
from .stm import (
    StmConfig,
    StmPlan,
    adapt_layer,
    initialize_adapter,
    maintaining_penalty,
    maintaining_penalty_grad,
)
from .tensorio import BundleEntry, Report, read_entries, staged_bundle, write_entry, write_manifest

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_PROPERTY = 3
EXIT_DIVERGED = 4

# Default synthetic stack for train-toy: a sharp shallow layer and a flat
# deep layer, each with two planted task directions well above the noise.
_TOY_LAYERS = [(20, 16, 0.55), (12, 20, 0.85)]
_TOY_PLANTED = [
    harness.PlantedDirections(indices=(3, 6), amplitudes=(0.9, 0.7)),
    harness.PlantedDirections(indices=(4, 8), amplitudes=(0.8, 0.6)),
]
_TOY_SAMPLES = 64
_TOY_NOISE = 0.01

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _layer_entries(weights_dir, residuals_dir) -> dict:
    """Each layer's validated (weight, residual or None) entries, by sorted name.

    A residual bundle, if given, must hold the same names.
    """
    weights = read_entries(weights_dir)
    residuals = dict.fromkeys(weights) if residuals_dir is None else read_entries(residuals_dir)
    missing = sorted(set(weights) - set(residuals))
    extra = sorted(set(residuals) - set(weights))
    if missing or extra:
        raise ValidationError(
            f"weight/residual name mismatch: missing residuals {missing}, extra {extra}"
        )
    return {name: (weights[name], residuals[name]) for name in sorted(weights)}


def _map_layers(job, layers: dict, *args) -> list:
    """``[job(name, *layers[name], *args) for name in layers]``, one worker per usable core.

    Workers are spawned with one BLAS thread each, so cores are not
    oversubscribed and results do not depend on the caller's BLAS thread
    settings. Layers start largest first, so no worker is left alone with
    a large layer at the end. Results are read in ``layers`` order: the
    first layer in that order to fail raises, with its name prefixed to the
    message, once pending jobs are cancelled and every worker has exited.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if not layers:
        return []
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on macOS or Windows
        cores = os.cpu_count() or 1
    # a thin SVD of an m x n weight costs about m * n * min(m, n)
    shapes = {name: weight.shape for name, (weight, _) in layers.items()}
    by_cost = sorted(shapes, key=lambda n: -math.prod(shapes[n]) * min(shapes[n]))
    pool = ProcessPoolExecutor(min(cores, len(layers)),
                               mp_context=multiprocessing.get_context("spawn"))
    try:
        saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            # workers start inside submit(), so every one sees the variables
            futures = {name: pool.submit(job, name, *layers[name], *args) for name in by_cost}
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        results = []
        for name in layers:
            try:
                results.append(futures[name].result())
            except (ValidationError, NumericError, BundleNotFoundError,
                    BundleCorruptionError) as exc:
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


def _add_stm_flags(p: argparse.ArgumentParser, require_alpha: bool,
                   alpha_default: float | None = None) -> None:
    p.add_argument("--alpha", type=float, required=require_alpha, default=alpha_default,
                   help="rank scaling factor applied to the entropy rank")
    p.add_argument("--gamma", type=float, default=1.0,
                   help="spectrum exponent for both effective ranks")
    p.add_argument("--protection-rule", choices=("ceil", "floor", "round"),
                   default="ceil", help="integerization of the stable-rank cutoff")
    p.add_argument("--min-rank", type=int, default=1)
    p.add_argument("--max-rank-fraction", type=float, default=0.5)


def _stm_config(args) -> StmConfig:
    return StmConfig(
        alpha=args.alpha,
        gamma=args.gamma,
        protection_rule=args.protection_rule,
        min_rank=args.min_rank,
        max_rank_fraction=args.max_rank_fraction,
    )


def _load_f64(entry: BundleEntry) -> np.ndarray:
    """The matrix of ``entry``, widened to float64.

    Widening a weight here rather than inside the SVD lets an ``f32`` entry's
    memory map close before the decomposition, the job's peak, so its pages
    are not resident on top of the SVD's own buffers.
    """
    return np.asarray(entry.load(), dtype=np.float64)


def spectra_layer(name: str, weight: BundleEntry, residual: BundleEntry | None,
                  gamma: float) -> list[dict]:
    """The ``spectra`` report records of layer ``name``, one per component."""
    w = _load_f64(weight)
    factors = None if residual is None else decompose(w)  # vectors only to project dW
    sigma = singular_values(w) if factors is None else factors.sigma
    ent = entropy_rank(sigma, gamma)
    st = stable_rank(sigma, gamma)
    if residual is not None:
        # widened once here, since both the projection and the spectrum use it
        dw = _load_f64(residual)
        proj = project_residual(factors, dw)
        res_sigma = singular_values(dw)
        try:
            res_ent = entropy_rank(res_sigma, gamma)
            res_st = stable_rank(res_sigma, gamma)
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
    check_gamma(args.gamma)
    per_layer = _map_layers(spectra_layer, _layer_entries(args.weights, args.residuals),
                            args.gamma)
    records = [rec for layer_records in per_layer for rec in layer_records]
    Report(kind="spectra", records=records).write(args.output, args.format)
    return EXIT_OK


def stm_init_layer(name: str, weight: BundleEntry, residual: BundleEntry, cfg: StmConfig,
                   out_dir) -> tuple[list[dict], StmPlan]:
    """Write the adapter matrices of layer ``name`` into directory ``out_dir``.

    The payloads of ``name.W0``, ``name.B`` and ``name.A`` are written with
    :func:`write_entry`; their manifest records and the layer's plan are
    returned, and no matrix is.
    """
    # the residual stays as stored until the projection, after the SVD
    layer = adapt_layer(_load_f64(weight), residual.load(), cfg)
    records = [write_entry(out_dir, f"{name}.{part}", matrix)
               for part, matrix in (("W0", layer.w0), ("B", layer.b), ("A", layer.a))]
    return records, layer.plan


def cmd_stm_init(args) -> int:
    layers = _layer_entries(args.weights, args.residuals)
    cfg = _stm_config(args)
    if os.path.realpath(args.output) in map(os.path.realpath, (args.weights, args.residuals)):
        raise ValidationError("--output must not be the weight or residual bundle")
    with staged_bundle(args.output) as out:
        results = _map_layers(stm_init_layer, layers, cfg, out)
        config = asdict(cfg)
        for name, (_, plan) in zip(layers, results):
            with open(out / f"{name}.plan.json", "w", encoding="utf-8") as fh:
                json.dump({"name": name, **plan.to_dict(), "config": config}, fh, indent=2)
                fh.write("\n")
        write_manifest(out, [record for records, _ in results for record in records])
    trainable = sum(plan.r * sum(layers[n][0].shape) for n, (_, plan) in zip(layers, results))
    print(f"trainable parameters: {trainable}")
    return EXIT_OK


def _verify_lemma(seed: int, trials: int, inject_fault: bool):
    shapes = [(4, 4), (8, 16), (32, 32), (64, 128)]
    rng = np.random.default_rng(seed)
    for t in range(trials):
        m, n = shapes[t % len(shapes)]
        k = min(m, n)
        family = t % 3
        if family == 0:
            sigma = np.linalg.svd(rng.standard_normal((m, n)), compute_uv=False)
        elif family == 1:
            ratio = rng.uniform(0.2, 0.98)
            sigma = ratio ** np.arange(k)
        else:
            sigma = np.full(k, 1e-4)
            sigma[0] = 1.0
        st = stable_rank(sigma, 1.0)
        ent = entropy_rank(sigma, 1.0)
        ok = st <= ent + 1e-9
        if inject_fault:
            ok = not ok
        if not ok:
            return ("rank_ordering", False,
                    f"trial {t} (seed {seed}): stable {st:.9f} vs entropy {ent:.9f}")
    return ("rank_ordering", True, f"{trials} trials")


def _sweep_layers(seed: int, count: int):
    shapes = [(8, 8), (16, 8), (8, 16), (32, 16)]
    rng = np.random.default_rng(seed)
    cfg = StmConfig(alpha=1.0)
    for t in range(count):
        m, n = shapes[t % len(shapes)]
        k = min(m, n)
        w = rng.standard_normal((m, n))
        r = int(rng.integers(1, max(2, k // 2)))
        selected = sorted(int(i) + 1 for i in rng.choice(k, size=r, replace=False))
        yield t, w, initialize_adapter(w, decompose(w), selected, cfg)


def _verify_init_exactness(seed: int, count: int):
    for t, w, layer in _sweep_layers(seed, count):
        err = np.linalg.norm(merge(layer) - w) / np.linalg.norm(w)
        if err > 1e-10:
            return ("init_exactness", False, f"trial {t} (seed {seed}): residual {err:.3e}")
    return ("init_exactness", True, f"{count} layers")


def _verify_zero_penalty(seed: int, count: int):
    for t, _, layer in _sweep_layers(seed, count):
        penalty = maintaining_penalty([layer])
        if penalty > 1e-9:
            return ("zero_penalty_at_init", False,
                    f"trial {t} (seed {seed}): penalty {penalty:.3e}")
    return ("zero_penalty_at_init", True, f"{count} layers")


def _verify_penalty_gradient(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for t, _, layer in _sweep_layers(seed + 1, count):
        layer.b = layer.b + 0.2 * rng.standard_normal(layer.b.shape)
        layer.a = layer.a + 0.2 * rng.standard_normal(layer.a.shape)
        grad_b, grad_a = maintaining_penalty_grad(layer)

        def penalty_of(b=None, a=None):
            saved_b, saved_a = layer.b, layer.a
            layer.b = saved_b if b is None else b
            layer.a = saved_a if a is None else a
            value = maintaining_penalty([layer])
            layer.b, layer.a = saved_b, saved_a
            return value

        err_b = harness.finite_difference_check(lambda b: penalty_of(b=b), layer.b, grad_b)
        err_a = harness.finite_difference_check(lambda a: penalty_of(a=a), layer.a, grad_a)
        if max(err_b, err_a) > 1e-4:
            return ("penalty_gradient", False,
                    f"trial {t} (seed {seed}): max error {max(err_b, err_a):.3e}")
    return ("penalty_gradient", True, f"{count} layers")


def _verify_task_gradient(seed: int, count: int):
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
                return harness.task_loss(trial, "tanh", task)

            err = harness.finite_difference_check(loss_of, weights[li], grads[li])
            if err > 1e-5:
                return ("task_gradient", False,
                        f"trial {t} layer {li} (seed {seed}): error {err:.3e}")
    return ("task_gradient", True, f"{count} models")


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValidationError("trials must be positive")
    results = [
        _verify_lemma(args.seed, args.trials, args.inject_fault),
        _verify_init_exactness(args.seed, 100),
        _verify_zero_penalty(args.seed, 100),
        _verify_penalty_gradient(args.seed, 25),
        _verify_task_gradient(args.seed, 5),
    ]
    failed = False
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return EXIT_PROPERTY if failed else EXIT_OK


def cmd_train_toy(args) -> int:
    model = harness.make_synthetic_model(_TOY_LAYERS, seed=args.seed)
    task = harness.make_proxy_task(model, _TOY_PLANTED, n_samples=_TOY_SAMPLES,
                                   noise=_TOY_NOISE, seed=args.seed + 1)
    stm_cfg = _stm_config(args)
    train_cfg = harness.TrainConfig(
        steps=args.steps,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        seed=args.seed,
        baseline=args.baseline,
        threshold_fraction=args.threshold_fraction,
    )
    report = harness.run_stm_experiment(model, task, stm_cfg, train_cfg,
                                        reg_weight=args.reg_weight)
    report.write(args.output, args.format)
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
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--output", required=True, help="report file to write")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("stm-init", help="initialize adapters from weight and residual bundles")
    p.add_argument("--weights", required=True)
    p.add_argument("--residuals", required=True)
    p.add_argument("--output", required=True, help="output bundle directory")
    _add_stm_flags(p, require_alpha=True)
    p.set_defaults(func=cmd_stm_init)

    p = sub.add_parser("verify", help="run the seeded property sweeps")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--inject-fault", action="store_true",
                   help="self-test: flip the rank ordering check so it must fail")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train-toy", help="synthetic adaptation experiment vs a baseline")
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--reg-weight", type=float, default=0.0)
    p.add_argument("--baseline", choices=harness.BASELINES, default="zero_init_lora")
    p.add_argument("--threshold-fraction", type=float, default=0.25)
    p.add_argument("--output", required=True, help="metrics report file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_stm_flags(p, require_alpha=False, alpha_default=0.4)
    p.set_defaults(func=cmd_train_toy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        return args.func(args)
    except (BundleNotFoundError, BundleCorruptionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
