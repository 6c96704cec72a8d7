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
from .eranks import check_spectrum
from .errors import NumericError, TrainingDivergedError, ValidationError
from .spectral import as_component_indices, decompose, singular_values
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
# steps_to_threshold counts the descent steps until the full-task loss is at
# most this fraction of its value at the start
THRESHOLD_FRACTION = 0.25


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
    seed: int = 0
    baseline: str = "zero_init_lora"

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("steps must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("learning_rate must be positive and finite")
        if self.baseline not in BASELINES:
            raise ValidationError(f"baseline must be one of {BASELINES}")


def _random_orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.where(np.diag(r) >= 0, 1.0, -1.0)


def resolve_spectrum(prescription, k: int) -> np.ndarray:
    """Expand a prescription into k descending singular values.

    A scalar ratio q in (0, 1] means geometric decay ``q**i`` starting at 1
    (q = 1 gives a uniform spectrum); anything array-like is taken verbatim
    if :func:`~rankadapt.eranks.check_spectrum` accepts it.
    """
    if np.isscalar(prescription):
        q = float(prescription)
        if not 0.0 < q <= 1.0:
            raise ValidationError(f"decay ratio must lie in (0, 1], got {q}")
        return q ** np.arange(k, dtype=np.float64)
    sigma = check_spectrum(prescription)
    if sigma.shape[0] != k:
        raise ValidationError(f"spectrum has {sigma.shape[0]} values, layer needs {k}")
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
        measured = singular_values(w)
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


def make_proxy_task(model: SyntheticModel, planted, n_samples: int,
                    noise: float, seed: int) -> ProxyTask:
    """Draw Gaussian inputs and label them with a secretly perturbed teacher."""
    if not (math.isfinite(noise) and noise >= 0):
        raise ValidationError(f"noise level must be finite and non-negative, got {noise}")
    if len(planted) != len(model.layers):
        raise ValidationError("need one planted entry (or None) per layer")
    for plant in filter(None, planted):
        if len(plant.indices) != len(plant.amplitudes):
            raise ValidationError("planted indices and amplitudes differ in length")
        for c in plant.amplitudes:
            if not math.isfinite(c):
                raise ValidationError(f"planted amplitudes must be finite, got {c}")
        for n, i in enumerate(plant.indices):
            if i in plant.indices[:n]:
                raise ValidationError(f"planted index {i} is repeated")
    rng = np.random.default_rng(seed)
    teacher = []
    for w, plant in zip(model.layers, planted):
        if plant is None or len(plant.indices) == 0:
            teacher.append(w.copy())
            continue
        f = decompose(w)
        amplitude = {int(i): c for i, c in zip(plant.indices, plant.amplitudes)}
        bump = np.zeros_like(w)
        for j in as_component_indices(plant.indices, f.k):  # ascending
            bump += amplitude[j + 1] * np.outer(f.u[:, j], f.vt[j, :])
        teacher.append(w + bump)
    x = rng.standard_normal((model.layers[0].shape[1], n_samples))
    y = _forward(teacher, model.activation, x)
    if noise > 0:
        y = y + noise * rng.standard_normal(y.shape)
    return ProxyTask(inputs=x, targets=y, planted=list(planted), noise=noise)


def _descend(effective, update, activation: str, task: ProxyTask, cfg: TrainConfig,
             what: str) -> list[float]:
    """Full-batch gradient descent on the task MSE; the loss at the start and after each step.

    Each step makes one :func:`mse_and_grads` pass over the whole task on the
    weights ``effective()`` returns and hands the gradients to ``update``.
    Being full batch, that pass's loss is the task loss of those weights, so
    the pass after the last update only scores it. ``what`` names the run
    in the divergence message.
    """
    losses = []
    # overflow and NaN are caught by the divergence check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps + 1):
            loss, grads = mse_and_grads(effective(), activation, task.inputs, task.targets)
            if step and not loss <= 10.0 * max(losses[0], 1e-30):  # a NaN loss diverged too
                raise TrainingDivergedError(
                    f"{what} diverged at step {step}: {loss:.3e} vs start {losses[0]:.3e}"
                )
            losses.append(loss)
            if step < cfg.steps:
                update(grads)
    return losses


def full_finetune_proxy(model: SyntheticModel, task: ProxyTask,
                        cfg: TrainConfig) -> list[np.ndarray]:
    """Gradient-descend every weight on the task MSE; return per-layer residuals."""
    weights = [w.copy() for w in model.layers]

    def update(grads):
        for w, g in zip(weights, grads):
            w -= cfg.learning_rate * g

    _descend(lambda: weights, update, model.activation, task, cfg, "full fine-tune")
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


def _baseline_adapters(model: SyntheticModel, stm_layers, method: str,
                       stm_cfg: StmConfig, seed: int) -> list[AdaptedLayer]:
    """Baseline adapters with the rank budget and base factors of ``stm_layers``."""
    rng = np.random.default_rng([seed, BASELINES.index(method) + 1])
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


def _train_adapters(layers, model, task, train_cfg, reg_weight) -> list[float]:
    """Adapter-only descent on task MSE + reg_weight * maintaining penalty; the losses."""
    scale = reg_weight / len(layers)

    def update(grads):
        for layer, g in zip(layers, grads):
            grad_b = g @ layer.a.T
            grad_a = layer.b.T @ g
            if reg_weight > 0:
                pen_b, pen_a = maintaining_penalty_grad(layer)
                grad_b = grad_b + scale * pen_b
                grad_a = grad_a + scale * pen_a
            layer.b -= train_cfg.learning_rate * grad_b
            layer.a -= train_cfg.learning_rate * grad_a

    return _descend(lambda: [merge(l) for l in layers], update, model.activation, task,
                    train_cfg, "adapter training")


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
        losses = _train_adapters(layers, model, adapter_task, train_cfg, reg_weight)
        threshold = THRESHOLD_FRACTION * losses[0]
        steps_hit = next((s for s in range(1, len(losses)) if losses[s] <= threshold), None)
        recall = _selection_recall(layers, task) if method == "stm" else None
        records.append({
            "method": method,
            "final_loss": losses[-1],
            "drift": _protected_drift(layers),
            "recall": "na" if recall is None else recall,
            "steps_to_threshold": "na" if steps_hit is None else steps_hit,
            "update_norm": _update_norm(layers, model),
        })
    return Report(kind="metrics", records=records)
