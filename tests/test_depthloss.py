import numpy as np
import pytest

from rankadapt.depthloss import (
    Camera,
    DepthMap,
    LossWeights,
    Pose,
    compose_sl,
    compose_ssl,
    gt_loss,
    photometric_error,
    pseudo_loss,
    smooth_loss,
    ssim,
    warp,
)
from rankadapt.errors import ValidationError

SSIM_C1 = 0.01 ** 2


def rand_image(seed, h=11, w=15, c=3):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (h, w, c))


def centered_camera(h, w, fx=30.0, fy=34.0):
    return Camera(fx=fx, fy=fy, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0)


class TestSsim:
    def test_self_similarity_is_one(self):
        img = rand_image(0)
        assert np.all(ssim(img, img) == 1.0)

    def test_constant_patches_closed_form(self):
        a = np.full((6, 7, 3), 0.2)
        b = np.full((6, 7, 3), 0.8)
        # constant patches have zero variance, so SSIM reduces to the
        # luminance term (2 mu_a mu_b + C1) / (mu_a^2 + mu_b^2 + C1)
        expected = (2 * 0.2 * 0.8 + SSIM_C1) / (0.2 ** 2 + 0.8 ** 2 + SSIM_C1)
        s = ssim(a, b)
        assert np.allclose(s, expected, atol=1e-9)
        assert np.ptp(s) == 0.0
        assert s[0, 0] < 1.0

    def test_inverted_image_below_one(self):
        img = rand_image(1)
        assert np.all(ssim(img, 1.0 - img) < 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ssim(rand_image(2, 4, 4), rand_image(3, 4, 5))


class TestPhotometricError:
    def test_identical_images_zero(self):
        img = rand_image(4)
        scalar, pe_map = photometric_error(img, img, LossWeights())
        assert scalar == 0.0
        assert np.all(pe_map == 0.0)

    def test_alpha_zero_is_pure_l1(self):
        a, b = rand_image(5), rand_image(6)
        scalar, _ = photometric_error(a, b, LossWeights(ssim_weight=0.0))
        assert scalar == pytest.approx(np.mean(np.abs(a - b)), abs=1e-12)

    def test_alpha_one_constant_closed_form(self):
        a = np.full((5, 5, 1), 0.2)
        b = np.full((5, 5, 1), 0.8)
        ssim_const = (2 * 0.2 * 0.8 + SSIM_C1) / (0.2 ** 2 + 0.8 ** 2 + SSIM_C1)
        scalar, _ = photometric_error(a, b, LossWeights(ssim_weight=1.0))
        assert scalar == pytest.approx((1.0 - ssim_const) / 2.0, abs=1e-9)

    def test_non_negative(self):
        a, b = rand_image(7), rand_image(8)
        for alpha in (0.0, 0.35, 0.85, 1.0):
            scalar, _ = photometric_error(a, b, LossWeights(ssim_weight=alpha))
            assert scalar >= 0.0


class TestWarp:
    def test_identity_pose_reproduces_source(self):
        img = rand_image(9)
        h, w = img.shape[:2]
        depth = DepthMap(np.full((h, w), 4.0))
        warped, in_bounds = warp(img, depth, Pose(np.eye(3), np.zeros(3)),
                                 centered_camera(h, w))
        assert np.all(in_bounds)
        assert np.max(np.abs(warped - img)) <= 1e-6

    def test_translation_disparity_law(self):
        img = rand_image(10)
        h, w = img.shape[:2]
        cam = centered_camera(h, w)
        tx, d = 0.4, 5.0
        warped, in_bounds = warp(img, DepthMap(np.full((h, w), d)),
                                 Pose(np.eye(3), np.array([tx, 0.0, 0.0])), cam)
        disparity = cam.fx * tx / d
        # brute-force oracle: project each pixel by hand and interpolate
        for v in range(h):
            for u in range(w):
                su = u + disparity
                if not in_bounds[v, u]:
                    assert su > w - 1 + 1e-9
                    continue
                x0 = int(np.floor(su))
                t = su - x0
                ref = (1 - t) * img[v, x0] + t * img[v, min(x0 + 1, w - 1)]
                assert np.max(np.abs(warped[v, u] - ref)) <= 1e-6

    def test_half_turn_about_optical_axis(self):
        img = rand_image(11, h=9, w=13)
        h, w = img.shape[:2]
        rot = np.diag([-1.0, -1.0, 1.0])
        warped, in_bounds = warp(img, DepthMap(np.full((h, w), 3.0)),
                                 Pose(rot, np.zeros(3)), centered_camera(h, w))
        assert np.all(in_bounds)
        assert np.max(np.abs(warped - img[::-1, ::-1, :])) <= 1e-6

    def test_invalid_depth_masked_not_error(self):
        img = rand_image(12, h=6, w=6)
        depth = np.full((6, 6), 2.0)
        mask = np.ones((6, 6), dtype=bool)
        mask[2, 3] = False
        warped, in_bounds = warp(img, DepthMap(depth, mask),
                                 Pose(np.eye(3), np.zeros(3)), centered_camera(6, 6))
        assert not in_bounds[2, 3]
        assert np.all(np.delete(in_bounds.ravel(), 2 * 6 + 3))

    def test_points_behind_camera_masked(self):
        img = rand_image(13, h=6, w=6)
        pose = Pose(np.eye(3), np.array([0.0, 0.0, -10.0]))  # moves points behind
        _, in_bounds = warp(img, DepthMap(np.full((6, 6), 2.0)), pose,
                            centered_camera(6, 6))
        assert not np.any(in_bounds)

    def test_pose_validation(self):
        with pytest.raises(ValidationError):
            Pose(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValidationError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
        with pytest.raises(ValidationError):
            Camera(fx=-1.0, fy=1.0, cx=0.0, cy=0.0)


class TestSmoothLoss:
    def test_constant_depth_zero(self):
        img = rand_image(14, h=8, w=8)
        assert smooth_loss(DepthMap(np.full((8, 8), 3.0)), img) == 0.0

    def test_linear_ramp_oracle(self):
        h, w = 6, 10
        img = np.full((h, w, 3), 0.5)
        depth = np.tile(np.linspace(2.0, 4.0, w), (h, 1))
        loss = smooth_loss(DepthMap(depth), img)
        # independent evaluation: constant image leaves the edge weights at 1
        disp = 1.0 / depth
        nd = disp / disp.mean()
        expected = np.mean(np.abs(nd[:, 1:] - nd[:, :-1]))
        assert loss == pytest.approx(expected, rel=1e-12)
        assert loss > 0.0

    def test_edges_discount_depth_steps(self):
        h, w = 8, 8
        depth = np.full((h, w), 2.0)
        depth[:, 4:] = 4.0
        flat = np.full((h, w, 1), 0.5)
        edged = flat.copy()
        edged[:, 4:, :] = 1.0  # image edge aligned with the depth step
        assert smooth_loss(DepthMap(depth), edged) < smooth_loss(DepthMap(depth), flat)

    def test_all_invalid_mask_rejected(self):
        img = rand_image(15, h=4, w=4)
        with pytest.raises(ValidationError):
            smooth_loss(DepthMap(np.ones((4, 4)), np.zeros((4, 4), dtype=bool)), img)

    def test_masked_region_contributes_nothing(self):
        img = np.full((4, 6, 1), 0.5)
        depth = np.full((4, 6), 2.0)
        depth[:, 3:] = 100.0  # big step, but it will be masked away
        mask = np.ones((4, 6), dtype=bool)
        mask[:, 3:] = False
        loss = smooth_loss(DepthMap(depth, mask), img)
        assert np.isfinite(loss) and loss == 0.0


class TestSupervisionLosses:
    def test_gt_loss_values(self):
        gt = DepthMap(np.full((4, 4), 2.0))
        assert gt_loss(gt, gt) == 0.0
        pred = DepthMap(np.full((4, 4), 3.0))
        assert gt_loss(pred, gt) == pytest.approx(0.5, abs=1e-12)

    def test_gt_loss_mixed_ratio(self):
        depth = np.full((2, 4), 10.0)
        pred = depth.copy()
        pred[:, :2] *= 1.2
        pred[:, 2:] *= 0.8
        assert gt_loss(DepthMap(pred), DepthMap(depth)) == pytest.approx(0.2, abs=1e-12)

    def test_gt_loss_scale_equivariance(self):
        gt = DepthMap(np.random.default_rng(16).uniform(1.0, 9.0, (5, 5)))
        for c in (0.5, 1.3, 2.0):
            assert gt_loss(DepthMap(c * gt.depth), gt) == pytest.approx(abs(c - 1.0), abs=1e-12)

    def test_gt_loss_respects_mask(self):
        depth = np.full((3, 3), 2.0)
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        pred = depth * 3.0  # would be huge error off-mask
        pred[1, 1] = 2.0
        assert gt_loss(DepthMap(pred), DepthMap(depth, mask)) == 0.0
        with pytest.raises(ValidationError):
            gt_loss(DepthMap(depth), DepthMap(depth, np.zeros((3, 3), dtype=bool)))

    def test_pseudo_loss_identity_and_affine(self):
        pred = DepthMap(np.random.default_rng(17).uniform(1.0, 9.0, (6, 6)))
        assert pseudo_loss(pred, pred) == 0.0
        shifted = DepthMap(2.5 * pred.depth + 3.0)
        assert pseudo_loss(shifted, pred) <= 1e-9

    def test_pseudo_loss_detects_inversion(self):
        base = np.random.default_rng(18).uniform(1.0, 9.0, (6, 6))
        flipped = base.copy()
        flipped[:3, :3] = 10.0 - flipped[:3, :3]  # invert depth ordering in one quadrant
        assert pseudo_loss(DepthMap(flipped), DepthMap(base)) > 0.0

    def test_pseudo_loss_constant_map_rejected(self):
        flat = DepthMap(np.full((4, 4), 2.0))
        varied = DepthMap(np.random.default_rng(19).uniform(1.0, 2.0, (4, 4)))
        with pytest.raises(ValidationError):
            pseudo_loss(flat, varied)


class TestCompose:
    def test_ssl(self):
        w = LossWeights(smooth_weight=1.0, reg_weight=1.0)
        assert compose_ssl(0.0, 0.0, 0.0, w) == 0.0
        assert compose_ssl(1.0, 2.0, 3.0, w) == 6.0
        w0 = LossWeights(smooth_weight=0.5, reg_weight=0.0)
        assert compose_ssl(1.0, 2.0, 3.0, w0) == 2.0  # regularizer disabled

    def test_sl_default_balance(self):
        assert compose_sl(0.1, 0.2, 0.0, 0.0, LossWeights()) == 0.4
        assert compose_sl(0.0, 0.0, 0.0, 0.0, LossWeights()) == 0.0

    def test_sl_pure_gt(self):
        w = LossWeights(pseudo_weight=0.0)
        assert compose_sl(0.3, 123.0, 0.0, 0.0, w) == pytest.approx(0.6, abs=1e-15)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            LossWeights(ssim_weight=1.5)
        with pytest.raises(ValidationError):
            LossWeights(gt_weight=-1.0)


def with_entry(value):
    """A 3 x 4 map of ones holding ``value`` at pixel (1, 2)."""
    arr = np.ones((3, 4))
    arr[1, 2] = value
    return arr


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: DepthMap(with_entry(NAN)),
    lambda: DepthMap(with_entry(INF)),
    lambda: Camera(fx=NAN, fy=30.0, cx=5.0, cy=4.0),
    lambda: Camera(fx=30.0, fy=30.0, cx=INF, cy=4.0),
    lambda: LossWeights(ssim_weight=NAN),
    lambda: LossWeights(smooth_weight=NAN),
    lambda: LossWeights(gt_weight=NAN),
    lambda: LossWeights(pseudo_weight=NAN),
    lambda: LossWeights(reg_weight=NAN),
    lambda: LossWeights(reg_weight=INF),
    lambda: Pose(np.eye(3), [NAN, 0.0, 0.0]),
    lambda: Pose(np.diag([NAN, 1.0, 1.0]), np.zeros(3)),
    # malformed rather than non-finite input, rejected the same way
    lambda: Pose(np.eye(3), [1.0, 2.0]),
], ids=["depth_nan", "depth_inf", "camera_fx_nan", "camera_cx_inf",
        "ssim_weight_nan", "smooth_weight_nan", "gt_weight_nan", "pseudo_weight_nan",
        "reg_weight_nan", "reg_weight_inf", "pose_translation_nan", "pose_rotation_nan",
        "pose_translation_size"])
def test_non_finite_value_rejected(make):
    with pytest.raises(ValidationError, match="finite|lie in|3 entries"):
        make()


def test_non_finite_depth_at_invalid_pixel_allowed():
    depth = DepthMap(with_entry(NAN), with_entry(0.0) == 1.0)
    assert not depth.valid_mask[1, 2]
    assert gt_loss(depth, DepthMap(np.ones((3, 4)))) == 0.0


CAMERA = dict(fx=30.0, fy=30.0, cx=5.0, cy=4.0)


@pytest.mark.parametrize("make", [
    lambda: DepthMap(np.full((3, 3), "1")),
    lambda: DepthMap(np.ones((3, 3)), np.full((3, 3), "no")),
    lambda: DepthMap(np.ones((3, 3)) + 0j),
    lambda: Pose(np.full((3, 3), "1"), np.zeros(3)),
    lambda: Pose(np.eye(3), ["0", "0", "0"]),
    lambda: Pose(np.eye(3) + 0j, np.zeros(3)),
    lambda: Pose(np.eye(3), np.zeros(3) + 0j),
    lambda: ssim(rand_image(0) + 0j, rand_image(0)),
    lambda: ssim(rand_image(0).astype(str), rand_image(0)),
    lambda: photometric_error(rand_image(0), rand_image(1) + 0j, LossWeights()),
    lambda: Camera(**{**CAMERA, "fx": True}),
    lambda: Camera(**{**CAMERA, "cy": "4.0"}),
    lambda: Camera(**{**CAMERA, "fx": 10**400}),
    lambda: LossWeights(ssim_weight=True),
    lambda: LossWeights(smooth_weight="0.1"),
    lambda: LossWeights(gt_weight=10**400),
], ids=["depth_str", "mask_str", "depth_complex", "rotation_str", "translation_str",
        "rotation_complex", "translation_complex", "image_complex", "image_str",
        "warped_complex", "camera_fx_bool", "camera_cy_str", "camera_fx_huge_int",
        "ssim_weight_bool", "smooth_weight_str", "gt_weight_huge_int"])
def test_input_not_real_rejected(make):
    # a complex input is rejected, not cast to its real part with a ComplexWarning
    with pytest.raises(ValidationError, match="must be real|finite|lie in"):
        make()


def test_numpy_scalars_accepted():
    cam = Camera(fx=np.float64(30.0), fy=np.int64(30), cx=np.float64(5.0), cy=np.int64(4))
    assert (cam.fx, cam.fy) == (30.0, 30)
    w = LossWeights(ssim_weight=np.float64(0.5), gt_weight=np.int64(2))
    assert compose_sl(1.0, 0.0, 0.0, 0.0, w) == 2.0
