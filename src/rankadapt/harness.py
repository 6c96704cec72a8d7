"""Synthetic end-to-end testbed for the adaptive low-rank pipeline.

Builds small weight stacks with prescribed singular spectra, fabricates a
regression task whose teacher hides a known low-rank perturbation of each
layer, produces a full-fine-tuned residual on that task, and runs the
select/initialize/regularize pipeline against baselines. Because the
perturbed directions are planted, selection quality is directly scorable.

Everything is seeded and deterministic: plain gradient descent, analytic
gradients (finite-difference checked), no global RNG state.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .adapter import merge
from .errors import NumericError, TrainingDivergedError, ValidationError
from .spectral import as_component_indices, decompose
from .stm import (
    AdaptedLayer,
    StmConfig,
    adapt_layer,
    initialize_adapter,
    maintaining_penalty_grad,
    make_plan,
    protected_terms,
)
from .tensorio import Report

BASELINES = ("zero_init_lora", "random_subset_lora")
_ACTIVATIONS = ("identity", "tanh")


@dataclass
class SyntheticModel:
    """Stack of weight matrices with known spectra."""

    layers: list[np.ndarray]
    activation: str = "identity"
    seed: int = 0


@dataclass(frozen=True)
class PlantedDirections:
    """Ground-truth perturbation of one layer: which directions, how much."""

    indices: tuple[int, ...]
    amplitudes: tuple[float, ...]


@dataclass
class ProxyTask:
    """Regression samples whose teacher is the model plus planted changes."""

    inputs: np.ndarray   # (n_in, samples)
    targets: np.ndarray  # (m_out, samples)
    planted: list         # one PlantedDirections or None per layer
    noise: float


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    learning_rate: float
    batch_size: int | None = None
    seed: int = 0
    baseline: str = "zero_init_lora"
    threshold_fraction: float = 0.25

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("steps must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("learning_rate must be positive and finite")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError("batch_size must be positive when given")
        if self.baseline not in BASELINES:
            raise ValidationError(f"baseline must be one of {BASELINES}")
        if not 0.0 < self.threshold_fraction <= 1.0:
            raise ValidationError("threshold_fraction must lie in (0, 1]")


def _random_orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.where(np.diag(r) >= 0, 1.0, -1.0)


def resolve_spectrum(prescription, k: int) -> np.ndarray:
    """Expand a prescription into k descending singular values.

    A scalar ratio q in (0, 1] means geometric decay ``q**i`` starting at 1
    (q = 1 gives a uniform spectrum); anything array-like is taken verbatim.
    """
    if np.isscalar(prescription):
        q = float(prescription)
        if not 0.0 < q <= 1.0:
            raise ValidationError(f"decay ratio must lie in (0, 1], got {q}")
        return q ** np.arange(k, dtype=np.float64)
    sigma = np.asarray(prescription, dtype=np.float64).ravel()
    if sigma.shape[0] != k:
        raise ValidationError(f"spectrum has {sigma.shape[0]} values, layer needs {k}")
    if np.any(sigma < 0) or np.any(np.diff(sigma) > 0):
        raise ValidationError("prescribed spectrum must be descending and non-negative")
    return sigma


def make_synthetic_model(layer_specs, seed: int, activation: str = "identity") -> SyntheticModel:
    """Build layers ``U diag(sigma) V^T`` with random orthogonal factors.

    ``layer_specs`` is a list of (rows, cols, prescription) triples; see
    :func:`resolve_spectrum` for prescriptions. Construction is verified:
    the measured spectrum of every layer must match its prescription.
    """
    if activation not in _ACTIVATIONS:
        raise ValidationError(f"activation must be one of {_ACTIVATIONS}")
    rng = np.random.default_rng(seed)
    layers = []
    for m, n, prescription in layer_specs:
        if m < 1 or n < 1:
            raise ValidationError(f"invalid layer shape ({m}, {n})")
        k = min(m, n)
        sigma = resolve_spectrum(prescription, k)
        u = _random_orthonormal(rng, m, k)
        v = _random_orthonormal(rng, n, k)
        w = (u * sigma) @ v.T
        measured = np.linalg.svd(w, compute_uv=False)
        if not np.allclose(measured, sigma, rtol=0, atol=1e-9 * max(1.0, sigma[0])):
            raise NumericError("constructed layer does not reproduce its spectrum")
        layers.append(w)
    return SyntheticModel(layers=layers, activation=activation, seed=seed)


def _forward(weights, activation: str, x: np.ndarray, inputs=None) -> np.ndarray:
    """Network output for inputs ``x``; ``inputs``, if given, collects each layer's input."""
    h = x
    last = len(weights) - 1
    for i, w in enumerate(weights):
        if inputs is not None:
            inputs.append(h)
        h = w @ h
        if i < last and activation == "tanh":
            h = np.tanh(h)
    return h


def mse_and_grads(weights, activation: str, x, y):
    """Mean-squared error over all target entries plus per-layer gradients."""
    inputs = []
    resid = _forward(weights, activation, x, inputs) - y
    g = (2.0 / resid.size) * resid
    grads = [None] * len(weights)
    for i in reversed(range(len(weights))):
        grads[i] = g @ inputs[i].T
        if i > 0:
            g = weights[i].T @ g
            if activation == "tanh":  # the input of layer i is tanh of layer i-1's output
                g = g * (1.0 - inputs[i] * inputs[i])
    return float(np.mean(resid * resid)), grads


def task_loss(weights, activation: str, task: ProxyTask) -> float:
    """Mean-squared error of the network on the whole task, forward pass only."""
    resid = _forward(weights, activation, task.inputs) - task.targets
    return float(np.mean(resid * resid))


def make_proxy_task(model: SyntheticModel, planted, n_samples: int,
                    noise: float, seed: int) -> ProxyTask:
    """Draw Gaussian inputs and label them with a secretly perturbed teacher."""
    if noise < 0:
        raise ValidationError("noise level must be non-negative")
    if len(planted) != len(model.layers):
        raise ValidationError("need one planted entry (or None) per layer")
    rng = np.random.default_rng(seed)
    teacher = []
    for w, plant in zip(model.layers, planted):
        if plant is None or len(plant.indices) == 0:
            teacher.append(w.copy())
            continue
        if len(plant.indices) != len(plant.amplitudes):
            raise ValidationError("planted indices and amplitudes differ in length")
        f = decompose(w)
        idx0 = as_component_indices(plant.indices, f.k)
        bump = np.zeros_like(w)
        for j, c in zip(idx0, plant.amplitudes):
            bump += c * np.outer(f.u[:, j], f.vt[j, :])
        teacher.append(w + bump)
    x = rng.standard_normal((model.layers[0].shape[1], n_samples))
    y = _forward(teacher, model.activation, x)
    if noise > 0:
        y = y + noise * rng.standard_normal(y.shape)
    return ProxyTask(inputs=x, targets=y, planted=list(planted), noise=noise)


def _batches(task: ProxyTask, cfg: TrainConfig):
    """Deterministic batch index stream: full batch, or cycling windows."""
    total = task.inputs.shape[1]
    if cfg.batch_size is None or cfg.batch_size >= total:
        while True:
            yield slice(None)
    else:
        start = 0
        while True:
            yield np.arange(start, start + cfg.batch_size) % total
            start = (start + cfg.batch_size) % total


def full_finetune_proxy(model: SyntheticModel, task: ProxyTask,
                        cfg: TrainConfig) -> list[np.ndarray]:
    """Gradient-descend every weight on the task MSE; return per-layer residuals."""
    weights = [w.copy() for w in model.layers]
    loss0 = task_loss(weights, model.activation, task)
    batches = _batches(task, cfg)
    # overflow and NaN are caught by the divergence check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps):
            sel = next(batches)
            _, grads = mse_and_grads(weights, model.activation,
                                      task.inputs[:, sel], task.targets[:, sel])
            for w, g in zip(weights, grads):
                w -= cfg.learning_rate * g
            loss = task_loss(weights, model.activation, task)
            if not loss <= 10.0 * max(loss0, 1e-30):  # a NaN loss diverged too
                raise TrainingDivergedError(
                    f"full fine-tune diverged at step {step + 1}: {loss:.3e} vs start {loss0:.3e}"
                )
    return [w - w0 for w, w0 in zip(weights, model.layers)]


def finite_difference_check(f, point: np.ndarray, analytic_grad: np.ndarray,
                            step: float = 1e-6) -> float:
    """Max relative error of ``analytic_grad`` against central differences.

    Entries whose analytic gradient is below 1e-12 in magnitude are skipped
    (relative error is meaningless there).
    """
    if step <= 0:
        raise ValidationError("step must be positive")
    point = np.asarray(point, dtype=np.float64)
    grad = np.asarray(analytic_grad, dtype=np.float64)
    if grad.shape != point.shape:
        raise ValidationError("gradient and point shapes differ")
    worst = 0.0
    for idx in np.ndindex(point.shape):
        shifted = point.copy()
        shifted[idx] = point[idx] + step
        f_plus = f(shifted)
        shifted[idx] = point[idx] - step
        f_minus = f(shifted)
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericError("objective is non-finite near the evaluation point")
        if abs(grad[idx]) > 1e-12:
            fd = (f_plus - f_minus) / (2.0 * step)
            worst = max(worst, abs(fd - grad[idx]) / abs(grad[idx]))
    return worst


def _kaiming_uniform(rng, rows: int, cols: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(cols)
    return rng.uniform(-bound, bound, size=(rows, cols))


_METHOD_IDS = {"zero_init_lora": 1, "random_subset_lora": 2}


def _baseline_adapters(model: SyntheticModel, stm_layers, method: str,
                       stm_cfg: StmConfig, seed: int) -> list[AdaptedLayer]:
    """Baseline adapters with the rank budget and base factors of ``stm_layers``."""
    rng = np.random.default_rng([seed, _METHOD_IDS[method]])
    layers = []
    for w, stm_layer in zip(model.layers, stm_layers):
        r, factors = stm_layer.plan.r, stm_layer.frozen_factors
        if method == "random_subset_lora":
            selected = tuple(sorted(int(i) + 1 for i in rng.choice(factors.k, size=r, replace=False)))
            layers.append(initialize_adapter(w, factors, selected, stm_cfg))
        else:  # zero_init_lora: B = 0, A random, base left untouched
            layers.append(AdaptedLayer(
                w0=w.copy(),
                b=np.zeros((w.shape[0], r)),
                a=_kaiming_uniform(rng, r, w.shape[1]),
                plan=replace(make_plan(factors, (), stm_cfg), r=r),
                frozen_factors=factors,
            ))
    return layers


def _train_adapters(layers, model, task, train_cfg, reg_weight):
    """Adapter-only descent on task MSE + reg_weight * maintaining penalty."""
    n_layers = len(layers)
    loss0 = task_loss([merge(l) for l in layers], model.activation, task)
    threshold = train_cfg.threshold_fraction * loss0
    steps_to_threshold = None
    batches = _batches(task, train_cfg)
    # overflow and NaN are caught by the divergence check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(train_cfg.steps):
            sel = next(batches)
            effective = [merge(l) for l in layers]
            _, grads = mse_and_grads(effective, model.activation,
                                      task.inputs[:, sel], task.targets[:, sel])
            for layer, g in zip(layers, grads):
                grad_b = g @ layer.a.T
                grad_a = layer.b.T @ g
                if reg_weight > 0:
                    pen_b, pen_a = maintaining_penalty_grad(layer)
                    grad_b = grad_b + (reg_weight / n_layers) * pen_b
                    grad_a = grad_a + (reg_weight / n_layers) * pen_a
                layer.b -= train_cfg.learning_rate * grad_b
                layer.a -= train_cfg.learning_rate * grad_a
            loss = task_loss([merge(l) for l in layers], model.activation, task)
            if not loss <= 10.0 * max(loss0, 1e-30):  # a NaN loss diverged too
                raise TrainingDivergedError(
                    f"adapter training diverged at step {step + 1}: "
                    f"{loss:.3e} vs start {loss0:.3e}"
                )
            if steps_to_threshold is None and loss <= threshold:
                steps_to_threshold = step + 1
    return loss, steps_to_threshold


def _selection_recall(layers, task) -> float | None:
    recalls = []
    for layer, plant in zip(layers, task.planted):
        if plant is None or len(plant.indices) == 0:
            continue
        hit = len(set(layer.plan.selected) & set(plant.indices))
        recalls.append(hit / len(plant.indices))
    if not recalls:
        return None
    return float(np.mean(recalls))


def _protected_drift(layers) -> float:
    worst = 0.0
    for layer in layers:
        terms, _ = protected_terms(layer)
        if terms.size:
            worst = max(worst, float(np.max(np.abs(terms))))
    return worst


def _update_norm(layers, model) -> float:
    sq = 0.0
    for layer, w in zip(layers, model.layers):
        diff = merge(layer) - w
        sq += float(np.sum(diff * diff))
    return math.sqrt(sq)


def run_stm_experiment(model: SyntheticModel, task: ProxyTask, stm_cfg: StmConfig,
                       train_cfg: TrainConfig, reg_weight: float = 0.0,
                       adapter_task: ProxyTask | None = None) -> Report:
    """Full pipeline against one baseline; metrics for both as a report.

    The residual driving direction selection is produced by full fine-tuning
    on ``task``; the adapters themselves train on ``adapter_task`` when given
    (defaults to the same samples).
    """
    if not (math.isfinite(reg_weight) and reg_weight >= 0):
        raise ValidationError("reg_weight must be non-negative and finite")
    adapter_task = adapter_task if adapter_task is not None else task
    residuals = full_finetune_proxy(model, task, train_cfg)
    stm_layers = [adapt_layer(w, dw, stm_cfg) for w, dw in zip(model.layers, residuals)]
    baseline_layers = _baseline_adapters(model, stm_layers, train_cfg.baseline,
                                         stm_cfg, train_cfg.seed)

    records = []
    for method, layers in (("stm", stm_layers), (train_cfg.baseline, baseline_layers)):
        final_loss, steps_hit = _train_adapters(layers, model, adapter_task,
                                                train_cfg, reg_weight)
        recall = _selection_recall(layers, task) if method == "stm" else None
        records.append({
            "method": method,
            "final_loss": final_loss,
            "drift": _protected_drift(layers),
            "recall": "na" if recall is None else recall,
            "steps_to_threshold": "na" if steps_hit is None else steps_hit,
            "update_norm": _update_norm(layers, model),
        })
    return Report(kind="metrics", records=records)
