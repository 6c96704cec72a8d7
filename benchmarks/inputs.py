"""Seeded synthetic inputs for the pipeline benchmark.

The bundle workloads share one weight bundle ``W`` and one residual bundle
``dW`` of eight f32 layers: four 768x768 attention-like layers and four
3072x768 MLP-like layers (46 MB per bundle).

* Each weight is ``U diag(q**i) V^T`` with random orthonormal factors plus
  iid Gaussian noise of std ``W_NOISE``. The decay ratio ``q`` differs by
  layer kind, so the entropy rank (and with it the rank budget at
  ``alpha = 0.5``) does too: about 45 for attention layers and 67 for MLP
  layers.
* Each residual plants ``PLANTED`` of the first ``PLANT_SPAN`` singular
  directions of its weight with strictly decreasing amplitudes, plus noise
  of std ``DW_NOISE``. The amplitude step is about 40x the noise, and more
  directions are planted than any rank budget, so the selected set is the
  leading planted directions with a clear margin and no ties.

The bundle format (``manifest.json`` plus one raw row-major little-endian
file per matrix) is written here directly rather than through the library,
so the program under test only ever sees files.
"""

import json
from pathlib import Path

import numpy as np

# (name, rows, cols, decay ratio of the prescribed spectrum)
LAYERS = [
    (f"block{i}.{kind}", rows, 768, q)
    for i in range(4)
    for kind, rows, q in (("attn", 768, 0.97), ("mlp", 3072, 0.98))
]
W_NOISE = 1e-6
DW_NOISE = 1e-5
DW_SCALE = 0.05
PLANTED = 96
PLANT_SPAN = 256


def _orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.where(np.diag(r) >= 0, 1.0, -1.0)


def layer_pair(rng, rows: int, cols: int, decay: float):
    """One (weight, residual) pair in float64, before the f32 cast."""
    k = min(rows, cols)
    u = _orthonormal(rng, rows, k)
    v = _orthonormal(rng, cols, k)
    sigma = decay ** np.arange(k, dtype=np.float64)
    weight = (u * sigma) @ v.T + W_NOISE * rng.standard_normal((rows, cols))
    planted = rng.choice(PLANT_SPAN, size=PLANTED, replace=False)
    amplitude = DW_SCALE * np.linspace(1.0, 0.2, PLANTED)
    residual = (u[:, planted] * amplitude) @ v[:, planted].T
    residual += DW_NOISE * rng.standard_normal((rows, cols))
    return weight, residual


def write_bundle(path: Path, matrices: dict) -> None:
    """Write ``{name: 2-D array}`` as an f32 bundle."""
    path.mkdir(parents=True)
    manifest = []
    for name, arr in matrices.items():
        np.ascontiguousarray(arr, dtype="<f4").tofile(path / f"{name}.bin")
        manifest.append({"name": name, "rows": arr.shape[0], "cols": arr.shape[1],
                         "dtype": "f32", "data": f"{name}.bin"})
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def read_bundle(path: Path) -> dict:
    """Read any bundle (f32 or f64 entries) into ``{name: float64 array}``."""
    manifest = json.loads((path / "manifest.json").read_text())
    dtypes = {"f32": "<f4", "f64": "<f8"}
    return {
        e["name"]: np.fromfile(path / e["data"], dtype=dtypes[e["dtype"]])
        .reshape(e["rows"], e["cols"]).astype(np.float64)
        for e in manifest
    }


def make_bundles(w_dir: Path, dw_dir: Path, seed: int, layers=LAYERS) -> None:
    """Write the weight and residual bundles for ``seed``."""
    rng = np.random.default_rng([seed, 2509])
    weights, residuals = {}, {}
    for name, rows, cols, decay in layers:
        weights[name], residuals[name] = layer_pair(rng, rows, cols, decay)
    write_bundle(w_dir, weights)
    write_bundle(dw_dir, residuals)
