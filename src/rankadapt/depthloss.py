"""Loss toolbox for view-synthesis depth supervision.

Images are plain ``(H, W, C)`` float arrays with values in [0, 1]. Depth
maps are metric and strictly positive wherever their validity mask is set.
All reductions exclude masked or out-of-bounds pixels, so a fully masked
region contributes nothing rather than NaN.

The photometric error blends structural similarity with an L1 term,
``PE = (w/2) (1 - SSIM) + (1 - w) |a - b|``; SSIM uses 3x3 block means and
the customary stabilizers C1 = 0.01^2, C2 = 0.03^2. The warp back-projects
each target pixel with its depth and the intrinsics, moves it by a rigid
pose, reprojects into the source view and samples bilinearly with zero
padding plus an explicit in-bounds mask.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


@dataclass
class DepthMap:
    """Metric depth in meters with a per-pixel validity mask."""

    depth: np.ndarray
    valid_mask: np.ndarray = None

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=np.float64)
        if self.depth.ndim != 2:
            raise ValidationError(f"depth must be H x W, got shape {self.depth.shape}")
        if self.valid_mask is None:
            self.valid_mask = np.ones(self.depth.shape, dtype=bool)
        else:
            self.valid_mask = np.asarray(self.valid_mask, dtype=bool)
        if self.valid_mask.shape != self.depth.shape:
            raise ValidationError("valid_mask shape must match depth")
        valid = self.depth[self.valid_mask]
        if not np.all((valid > 0) & (valid < np.inf)):  # NaN fails both
            raise ValidationError("depth must be positive and finite wherever valid")


@dataclass(frozen=True)
class Camera:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.cx, self.cy)):
            raise ValidationError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValidationError("focal lengths must be positive")


@dataclass
class Pose:
    """Rigid transform: proper rotation plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if self.rotation.shape != (3, 3):
            raise ValidationError("rotation must be 3x3")
        if self.translation.size != 3:
            raise ValidationError("translation must have 3 entries")
        self.translation = self.translation.reshape(3)
        if not (np.all(np.isfinite(self.rotation)) and np.all(np.isfinite(self.translation))):
            raise ValidationError("pose contains non-finite values")
        err = np.max(np.abs(self.rotation.T @ self.rotation - np.eye(3)))
        if err > 1e-9:
            raise ValidationError(f"rotation is not orthonormal (deviation {err:.2e})")
        if np.linalg.det(self.rotation) < 0:
            raise ValidationError("rotation must have determinant +1")


@dataclass(frozen=True)
class LossWeights:
    """Weights of the loss terms.

    ``ssim_weight`` blends SSIM against L1 inside the photometric error.
    ``gt_weight`` and ``pseudo_weight`` default to the 2:1 balance that
    favors sparse ground truth over dense pseudo labels.
    """

    ssim_weight: float = 0.85
    smooth_weight: float = 1e-3
    gt_weight: float = 2.0
    pseudo_weight: float = 1.0
    reg_weight: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.ssim_weight <= 1.0:
            raise ValidationError("ssim_weight must lie in [0, 1]")
        for name in ("smooth_weight", "gt_weight", "pseudo_weight", "reg_weight"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValidationError(f"{name} must be non-negative and finite")


def _checked_image(img, name="image") -> np.ndarray:
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] < 1:
        raise ValidationError(f"{name} must be H x W x C, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValidationError(f"{name} values must lie in [0, 1]")
    return arr


def _box3(x: np.ndarray) -> np.ndarray:
    # 3x3 block mean with edge replication; exact on constant inputs.
    p = np.pad(x, 1, mode="edge")
    return (
        p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
        + p[1:-1, :-2] + p[1:-1, 1:-1] + p[1:-1, 2:]
        + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]
    ) / 9.0


def ssim(a, b) -> np.ndarray:
    """Per-pixel structural similarity map in [-1, 1], channel-averaged."""
    a = _checked_image(a, "a")
    b = _checked_image(b, "b")
    if a.shape != b.shape:
        raise ValidationError(f"image shapes differ: {a.shape} vs {b.shape}")
    maps = np.zeros(a.shape[:2])
    for c in range(a.shape[2]):
        x, y = a[:, :, c], b[:, :, c]
        mu_x, mu_y = _box3(x), _box3(y)
        var_x = _box3(x * x) - mu_x * mu_x
        var_y = _box3(y * y) - mu_y * mu_y
        cov = _box3(x * y) - mu_x * mu_y
        num = (2 * mu_x * mu_y + _SSIM_C1) * (2 * cov + _SSIM_C2)
        den = (mu_x * mu_x + mu_y * mu_y + _SSIM_C1) * (var_x + var_y + _SSIM_C2)
        maps += num / den
    return maps / a.shape[2]


def photometric_error(target, warped, w: LossWeights) -> tuple[float, np.ndarray]:
    """Blended SSIM/L1 photometric error: scalar mean plus the per-pixel map."""
    target = _checked_image(target, "target")
    warped = _checked_image(warped, "warped")
    if target.shape != warped.shape:
        raise ValidationError(f"image shapes differ: {target.shape} vs {warped.shape}")
    alpha = w.ssim_weight
    l1 = np.mean(np.abs(target - warped), axis=2)
    pe_map = 0.5 * alpha * (1.0 - ssim(target, warped)) + (1.0 - alpha) * l1
    return float(np.mean(pe_map)), pe_map


def _bilinear_sample(image: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample (H, W, C) at float pixel coords, zero outside the image."""
    h, wid = image.shape[:2]
    x0 = np.floor(u).astype(int)
    y0 = np.floor(v).astype(int)
    out = np.zeros((u.shape[0], image.shape[2]))
    for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
        xi, yi = x0 + dx, y0 + dy
        weight = (1 - np.abs(u - xi)) * (1 - np.abs(v - yi))
        inside = (xi >= 0) & (xi < wid) & (yi >= 0) & (yi < h)
        xi_c = np.clip(xi, 0, wid - 1)
        yi_c = np.clip(yi, 0, h - 1)
        out += (weight * inside)[:, None] * image[yi_c, xi_c, :]
    return out


def warp(source, depth: DepthMap, pose: Pose, cam: Camera) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize the target view from ``source`` via depth and pose.

    Each target pixel is back-projected with its depth, transformed by the
    pose, projected into the source image and sampled bilinearly. Returns the
    warped image and an in-bounds mask; pixels with invalid or non-positive
    depth, points behind the camera, and samples outside the source are
    masked out rather than treated as errors.
    """
    source = _checked_image(source, "source")
    h, wid = source.shape[:2]
    if depth.depth.shape != (h, wid):
        raise ValidationError(
            f"depth shape {depth.depth.shape} does not match image ({h}, {wid})"
        )
    us, vs = np.meshgrid(np.arange(wid, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    d = depth.depth.ravel()
    usable = depth.valid_mask.ravel() & (d > 0)

    x = (us.ravel() - cam.cx) / cam.fx * d
    y = (vs.ravel() - cam.cy) / cam.fy * d
    pts = np.stack([x, y, d])
    moved = pose.rotation @ pts + pose.translation[:, None]
    z = moved[2]
    in_front = z > 0
    z_safe = np.where(in_front, z, 1.0)
    u2 = cam.fx * moved[0] / z_safe + cam.cx
    v2 = cam.fy * moved[1] / z_safe + cam.cy

    # 1e-9 px slack keeps boundary pixels in bounds under float roundoff
    in_bounds = (
        usable & in_front
        & (u2 >= -1e-9) & (u2 <= wid - 1 + 1e-9)
        & (v2 >= -1e-9) & (v2 <= h - 1 + 1e-9)
    )
    u2 = np.where(in_bounds, np.clip(u2, 0.0, wid - 1.0), -2.0)
    v2 = np.where(in_bounds, np.clip(v2, 0.0, h - 1.0), -2.0)
    warped = _bilinear_sample(source, u2, v2).reshape(h, wid, source.shape[2])
    return warped, in_bounds.reshape(h, wid)


def _axis_smoothness(norm_disp, pair_valid, img_grad):
    if not np.any(pair_valid):
        return 0.0
    term = np.abs(norm_disp) * np.exp(-img_grad)
    return float(np.mean(term[pair_valid]))


def smooth_loss(depth: DepthMap, image) -> float:
    """Edge-aware first-order smoothness of mean-normalized inverse depth.

    Depth gradients are discounted where the image itself has strong
    gradients, so depth discontinuities aligned with image edges are cheap.
    """
    image = _checked_image(image, "image")
    if depth.depth.shape != image.shape[:2]:
        raise ValidationError("depth and image shapes do not match")
    mask = depth.valid_mask
    if not np.any(mask):
        raise ValidationError("smooth_loss needs at least one valid pixel")
    disp = np.zeros_like(depth.depth)
    disp[mask] = 1.0 / depth.depth[mask]
    norm_disp = disp / np.mean(disp[mask])

    gray = np.mean(image, axis=2)
    dx = norm_disp[:, 1:] - norm_disp[:, :-1]
    dy = norm_disp[1:, :] - norm_disp[:-1, :]
    ix = np.abs(gray[:, 1:] - gray[:, :-1])
    iy = np.abs(gray[1:, :] - gray[:-1, :])
    valid_x = mask[:, 1:] & mask[:, :-1]
    valid_y = mask[1:, :] & mask[:-1, :]
    return _axis_smoothness(dx, valid_x, ix) + _axis_smoothness(dy, valid_y, iy)


def _shared_mask(pred: DepthMap, ref: DepthMap) -> np.ndarray:
    if pred.depth.shape != ref.depth.shape:
        raise ValidationError("depth map shapes do not match")
    mask = pred.valid_mask & ref.valid_mask
    if not np.any(mask):
        raise ValidationError("no jointly valid pixels")
    return mask


def gt_loss(pred: DepthMap, gt: DepthMap) -> float:
    """Mean absolute relative error against (typically sparse) ground truth."""
    mask = _shared_mask(pred, gt)
    return float(np.mean(np.abs(pred.depth[mask] - gt.depth[mask]) / gt.depth[mask]))


def pseudo_loss(pred: DepthMap, pseudo: DepthMap) -> float:
    """Affine-invariant L1 against a dense pseudo label.

    Both maps are normalized independently (median shift, mean-absolute-
    deviation scale) over the shared valid mask before the L1 comparison,
    which removes any positive scale and shift.
    """
    mask = _shared_mask(pred, pseudo)

    def normalize(values):
        med = np.median(values)
        mad = np.mean(np.abs(values - med))
        if mad == 0.0:
            raise ValidationError("constant depth map cannot be normalized")
        return (values - med) / mad

    return float(np.mean(np.abs(normalize(pred.depth[mask]) - normalize(pseudo.depth[mask]))))


def _pack(bundle: dict, entries: dict) -> None:
    taken = sorted(bundle.keys() & entries.keys())
    if taken:
        raise ValidationError(f"duplicate entry name {taken[0]!r}")
    bundle.update(entries)


def pack_image(bundle: dict, name: str, image) -> None:
    """Store an image in the ``{name: matrix}`` dict ``bundle``, one H x W entry per channel.

    The entries are ``name.c0``, ``name.c1``, ...; the manifest stays the
    single source of truth for shapes, and the channel count is recoverable
    from the entry names. A name ``bundle`` already holds raises
    ``ValidationError`` and adds no entry; entry names are checked when the
    bundle is written.
    """
    image = _checked_image(image, name)
    _pack(bundle, {f"{name}.c{c}": image[:, :, c] for c in range(image.shape[2])})


def unpack_image(bundle: dict, name: str) -> np.ndarray:
    """Reassemble, as float64, an image stored by :func:`pack_image`."""
    channels = []
    while f"{name}.c{len(channels)}" in bundle:
        channels.append(bundle[f"{name}.c{len(channels)}"])
    if not channels:
        raise ValidationError(f"bundle has no image channels named {name}.c*")
    return np.stack(channels, axis=2).astype(np.float64, copy=False)


def pack_depth(bundle: dict, name: str, depth: DepthMap) -> None:
    """Store a depth map in ``bundle`` as ``name.depth`` plus a 0/1 ``name.mask`` entry.

    A name ``bundle`` already holds raises ``ValidationError`` and adds no entry.
    """
    _pack(bundle, {f"{name}.depth": depth.depth,
                   f"{name}.mask": depth.valid_mask.astype(np.float64)})


def unpack_depth(bundle: dict, name: str) -> DepthMap:
    """The depth map stored by :func:`pack_depth`; a missing entry raises ``ValidationError``."""
    missing = [key for key in (f"{name}.depth", f"{name}.mask") if key not in bundle]
    if missing:
        raise ValidationError(f"bundle has no depth map entries {missing}")
    return DepthMap(bundle[f"{name}.depth"], bundle[f"{name}.mask"] != 0.0)


def compose_ssl(pe: float, smooth: float, reg: float, w: LossWeights) -> float:
    """Self-supervised objective: photometric + weighted smoothness + regularizer."""
    return float(pe + w.smooth_weight * smooth + w.reg_weight * reg)


def compose_sl(gt: float, pseudo: float, smooth: float, reg: float, w: LossWeights) -> float:
    """Supervised objective: weighted ground-truth and pseudo-label terms."""
    return float(
        w.gt_weight * gt + w.pseudo_weight * pseudo
        + w.smooth_weight * smooth + w.reg_weight * reg
    )
