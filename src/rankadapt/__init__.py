"""Effective-rank guided low-rank adaptation of weight matrices.

The library decomposes pretrained weights, measures how evenly their
singular spectra spread (entropy rank) and how strongly they concentrate
(stable rank), selects a per-layer rank budget and the residual-aligned
singular directions for an exactly-initialized low-rank adapter, and scores
a penalty that keeps training off the protected leading directions. A
depth-estimation loss toolbox and a synthetic adaptation harness round out
the package; the ``rankadapt`` CLI chains everything over serialized
matrix bundles.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so ``rankadapt --help``
and a worker process load only what they use.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "adapter": ("forward", "merge", "trainable_param_count"),
        "depthloss": (
            "Camera", "DepthMap", "LossWeights", "Pose", "compose_sl", "compose_ssl", "gt_loss",
            "pack_depth", "pack_image", "photometric_error", "pseudo_loss", "smooth_loss",
            "ssim", "unpack_depth", "unpack_image", "warp",
        ),
        "eranks": ("entropy_rank", "stable_rank"),
        "errors": ("RankadaptError",),
        "harness": (
            "PlantedDirections", "ProxyTask", "SyntheticModel", "TrainConfig",
            "finite_difference_check", "full_finetune_proxy", "make_proxy_task",
            "make_synthetic_model", "run_stm_experiment",
        ),
        "spectral": ("SvdFactors", "decompose", "project_residual", "reconstruct",
                     "singular_values"),
        "stm": (
            "AdaptedLayer", "StmConfig", "StmPlan", "adapt_layer", "initialize_adapter",
            "maintaining_penalty", "maintaining_penalty_grad", "select_directions",
            "select_rank",
        ),
        "tensorio": (
            "BundleEntry", "Report", "read_bundle", "read_entries", "staged_bundle",
            "write_bundle", "write_entry", "write_manifest",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
