"""Effective-rank guided low-rank adaptation of weight matrices.

The library decomposes pretrained weights, measures how evenly their
singular spectra spread (entropy rank) and how strongly they concentrate
(stable rank), selects a per-layer rank budget and the residual-aligned
singular directions for an exactly-initialized low-rank adapter, and scores
a penalty that keeps training off the protected leading directions. A
depth-estimation loss toolbox and a synthetic adaptation harness round out
the package; the ``rankadapt`` CLI chains everything over serialized
matrix bundles.
"""

from .adapter import forward, merge, trainable_param_count
from .depthloss import (
    Camera,
    DepthMap,
    LossWeights,
    Pose,
    compose_sl,
    compose_ssl,
    gt_loss,
    pack_depth,
    pack_image,
    photometric_error,
    pseudo_loss,
    smooth_loss,
    ssim,
    unpack_depth,
    unpack_image,
    warp,
)
from .eranks import RankReport, entropy_rank, rank_report, stable_rank
from .errors import RankadaptError
from .harness import (
    PlantedDirections,
    ProxyTask,
    SyntheticModel,
    TrainConfig,
    finite_difference_check,
    full_finetune_proxy,
    make_proxy_task,
    make_synthetic_model,
    run_stm_experiment,
)
from .spectral import SvdFactors, decompose, project_residual, reconstruct, singular_values
from .stm import (
    AdaptedLayer,
    StmConfig,
    StmPlan,
    adapt_layer,
    initialize_adapter,
    maintaining_penalty,
    maintaining_penalty_grad,
    select_directions,
    select_rank,
)
from .tensorio import (
    BundleEntry,
    Report,
    read_bundle,
    read_entries,
    staged_bundle,
    write_bundle,
    write_entry,
    write_manifest,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedLayer",
    "BundleEntry",
    "Camera",
    "DepthMap",
    "LossWeights",
    "PlantedDirections",
    "Pose",
    "ProxyTask",
    "RankReport",
    "RankadaptError",
    "Report",
    "StmConfig",
    "StmPlan",
    "SvdFactors",
    "SyntheticModel",
    "TrainConfig",
    "adapt_layer",
    "compose_sl",
    "compose_ssl",
    "decompose",
    "entropy_rank",
    "finite_difference_check",
    "forward",
    "full_finetune_proxy",
    "gt_loss",
    "initialize_adapter",
    "maintaining_penalty",
    "maintaining_penalty_grad",
    "make_proxy_task",
    "make_synthetic_model",
    "merge",
    "pack_depth",
    "pack_image",
    "photometric_error",
    "project_residual",
    "pseudo_loss",
    "rank_report",
    "read_bundle",
    "read_entries",
    "reconstruct",
    "run_stm_experiment",
    "select_directions",
    "select_rank",
    "singular_values",
    "smooth_loss",
    "ssim",
    "stable_rank",
    "staged_bundle",
    "trainable_param_count",
    "unpack_depth",
    "unpack_image",
    "warp",
    "write_bundle",
    "write_entry",
    "write_manifest",
]
