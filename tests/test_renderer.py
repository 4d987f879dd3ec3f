"""CPU splat rasterizer: projection math, compositing identities, image I/O."""

import numpy as np
import pytest

from splatreloc import (
    CameraIntrinsics,
    ImageFormatError,
    Pose,
    SplatScene,
    SyntheticSceneConfig,
    generate_synthetic_scene,
    load_depth_f32,
    load_ppm,
    load_ppm_levels,
    render,
    save_depth,
    save_ppm,
    save_ppm_levels,
    to_levels,
)
from splatreloc.geometry import quat_from_axis_angle, quat_to_matrix
from splatreloc.renderer import (
    COV2D_REGULARIZATION,
    DEPTH_VALID_OPACITY,
    EXTENT_SIGMA,
    TRANSMITTANCE_FLOOR,
    RenderOutput,
    _project_arrays,
)

from conftest import random_unit_quaternion, scene_from


def isotropic(mean, scale, opacity=0.8, color=(1.0, 1.0, 1.0)):
    return (mean, [1.0, 0.0, 0.0, 0.0], np.full(3, scale), opacity, color)


def take(scene, index):
    """The scene's Gaussians at `index`, in that order, under the same sky."""
    return SplatScene(*(a[index] for a in scene.arrays().values()), sky_color=scene.sky_color)


def random_scene(rng, n=20, sky=(0.1, 0.2, 0.3)):
    gaussians = [
        (
            np.append(rng.uniform(-2, 2, 2), rng.uniform(3, 9)),
            random_unit_quaternion(rng),
            rng.uniform(0.05, 0.4, 3),
            float(rng.uniform(0.3, 1.0)),
            rng.uniform(0, 1, 3),
        )
        for _ in range(n)
    ]
    return scene_from(gaussians, sky=sky)


def project(gaussian, pose, cam):
    """(keep, mean2d, cov2d, depth) of one Gaussian; keep is False when culled."""
    scene = scene_from([gaussian])
    keep, mean2d, cov2d, depth, _ = _project_arrays(
        scene.means, scene.quats, scene.scales, pose, cam
    )
    return bool(keep[0]), mean2d[0], cov2d[0], float(depth[0])


def reference_render(scene, pose, cam) -> RenderOutput:
    """The one-Gaussian-at-a-time compositing loop, kept as the reference for
    ``render``: square 3-sigma boxes, separate rgb/opacity/depth accumulators
    and a fresh array for every step."""
    H, W = cam.height, cam.width
    rgb = np.zeros((H, W, 3))
    opacity = np.zeros((H, W))
    depth_sum = np.zeros((H, W))
    trans = np.ones((H, W))

    keep, mean2d, cov2d, z, radius = _project_arrays(
        scene.means, scene.quats, scene.scales, pose, cam
    )
    idx = np.flatnonzero(keep)
    if idx.size:
        # Front-to-back order with a content-based tie break so the output is
        # independent of the order Gaussians appear in the scene arrays.
        m = scene.means[idx]
        order = np.lexsort((m[:, 0], m[:, 1], m[:, 2], z[idx]))
        idx = idx[order]

        opac = scene.opacities
        colors = scene.colors
        cutoff_q = EXTENT_SIGMA**2
        for i in idx:
            cx, cy = mean2d[i]
            r = radius[i]
            x0 = max(int(np.floor(cx - r)), 0)
            x1 = min(int(np.ceil(cx + r)) + 1, W)
            y0 = max(int(np.floor(cy - r)), 0)
            y1 = min(int(np.ceil(cy + r)) + 1, H)
            if x0 >= x1 or y0 >= y1:
                continue
            T_patch = trans[y0:y1, x0:x1]
            if T_patch.max() < TRANSMITTANCE_FLOOR:
                continue

            a, b, c = cov2d[i, 0, 0], cov2d[i, 0, 1], cov2d[i, 1, 1]
            det = a * c - b * b
            if det <= 0.0:
                continue
            dx = np.arange(x0, x1) - cx
            dy = np.arange(y0, y1) - cy
            # Mahalanobis distance via the inverse covariance (c, -b, a)/det.
            q = (
                c * dx[None, :] ** 2
                - 2.0 * b * dy[:, None] * dx[None, :]
                + a * dy[:, None] ** 2
            ) / det
            g = np.where(q <= cutoff_q, np.exp(-0.5 * q), 0.0)
            alpha = opac[i] * g
            weight = alpha * T_patch
            rgb[y0:y1, x0:x1] += weight[:, :, None] * colors[i]
            opacity[y0:y1, x0:x1] += weight
            depth_sum[y0:y1, x0:x1] += weight * z[i]
            T_patch *= 1.0 - alpha

    rgb += (1.0 - opacity[:, :, None]) * scene.sky_color
    valid = opacity >= DEPTH_VALID_OPACITY
    depth = np.zeros((H, W))
    np.divide(depth_sum, opacity, out=depth, where=valid)
    return RenderOutput(rgb=np.clip(rgb, 0.0, 1.0), depth=depth, opacity=opacity)


# ===========================================================================
# _project_arrays, one Gaussian at a time
# ===========================================================================


class TestProjectGaussian:
    def test_on_axis_center_and_depth(self, cam):
        keep, mean2d, _, depth = project(isotropic([0, 0, 5], 0.1), Pose.identity(), cam)
        assert keep
        np.testing.assert_allclose(mean2d, [160.0, 120.0], atol=1e-9)
        assert depth == pytest.approx(5.0)

    def test_on_axis_isotropic_covariance(self, cam):
        """Axis-aligned on-axis footprint is diag((fx*s/z)^2) plus the
        regularization floor."""
        s, z = 0.2, 4.0
        _, _, cov2d, _ = project(isotropic([0, 0, z], s), Pose.identity(), cam)
        expected = (cam.fx * s / z) ** 2 + COV2D_REGULARIZATION
        np.testing.assert_allclose(
            cov2d, [[expected, 0.0], [0.0, expected]], atol=1e-9
        )

    def test_matches_direct_jacobian_chain(self, cam, rng):
        """Full perspective covariance chain recomputed independently."""
        for _ in range(10):
            g = (
                np.append(rng.uniform(-1.5, 1.5, 2), rng.uniform(3, 8)),
                random_unit_quaternion(rng),
                rng.uniform(0.05, 0.3, 3),
                0.5,
                np.zeros(3),
            )
            keep, mean2d, cov2d, _ = project(g, Pose.identity(), cam)
            assert keep
            mean, quat, scale = g[0], g[1], g[2]
            x, y, z = mean
            J = np.array(
                [
                    [cam.fx / z, 0.0, -cam.fx * x / z**2],
                    [0.0, cam.fy / z, -cam.fy * y / z**2],
                ]
            )
            R = quat_to_matrix(quat)
            cov3d = R @ np.diag(scale**2) @ R.T
            expected = J @ cov3d @ J.T + COV2D_REGULARIZATION * np.eye(2)
            np.testing.assert_allclose(cov2d, expected, atol=1e-9)
            np.testing.assert_allclose(
                mean2d,
                [cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy],
                atol=1e-9,
            )

    def test_behind_camera_is_culled(self, cam):
        assert not project(isotropic([0, 0, -5], 0.1), Pose.identity(), cam)[0]

    def test_near_plane_culling(self, cam):
        assert not project(isotropic([0, 0, 0.05], 0.01), Pose.identity(), cam)[0]

    def test_far_off_screen_is_culled(self, cam):
        assert not project(isotropic([50, 0, 5], 0.05), Pose.identity(), cam)[0]

    def test_respects_camera_pose(self, cam):
        """Moving the camera back 5 m equals placing the point 5 m deeper."""
        pose = Pose(np.array([1.0, 0, 0, 0]), np.array([0.0, 0.0, -5.0]))
        _, moved_mean2d, _, moved_depth = project(isotropic([0, 0, 5], 0.1), pose, cam)
        _, direct_mean2d, _, direct_depth = project(
            isotropic([0, 0, 10], 0.1), Pose.identity(), cam
        )
        np.testing.assert_allclose(moved_mean2d, direct_mean2d, atol=1e-9)
        assert moved_depth == pytest.approx(direct_depth)


# ===========================================================================
# render: compositing identities
# ===========================================================================


class TestRenderIdentities:
    def test_empty_scene_is_sky_exactly(self, cam):
        sky = (0.25, 0.5, 0.75)
        out = render(scene_from([], sky=sky), Pose.identity(), cam)
        assert np.all(out.rgb == np.array(sky))
        assert np.all(out.depth == 0.0)
        assert np.all(out.opacity == 0.0)

    def test_on_axis_peak_at_principal_pixel(self, cam):
        out = render(scene_from([isotropic([0, 0, 5], 0.1)]), Pose.identity(), cam)
        peak = np.unravel_index(np.argmax(out.opacity), out.opacity.shape)
        assert peak == (120, 160)

    def test_on_axis_depth_at_peak(self, cam):
        out = render(
            scene_from([isotropic([0, 0, 5], 0.1, opacity=0.9)]), Pose.identity(), cam
        )
        assert out.depth[120, 160] == pytest.approx(5.0, abs=1e-2)

    def test_footprint_variance_matches_analytic(self, cam):
        """Empirical variance of the screen footprint equals the projected
        covariance corrected for the 3-sigma elliptical cutoff."""
        s, z = 0.08, 5.0
        out = render(
            scene_from([isotropic([0, 0, z], s, opacity=0.5)]), Pose.identity(), cam
        )
        w = out.opacity
        ys, xs = np.mgrid[0 : cam.height, 0 : cam.width]
        total = w.sum()
        mx = (w * xs).sum() / total
        my = (w * ys).sum() / total
        var_x = (w * (xs - mx) ** 2).sum() / total
        var_y = (w * (ys - my) ** 2).sum() / total

        nominal = (cam.fx * s / z) ** 2 + COV2D_REGULARIZATION
        # per-axis variance of a 2-D gaussian truncated at mahalanobis radius 3
        e = np.exp(-4.5)
        truncation = (1.0 - 5.5 * e) / (1.0 - e)
        expected = nominal * truncation

        assert mx == pytest.approx(160.0, abs=1e-6)
        assert my == pytest.approx(120.0, abs=1e-6)
        assert var_x == pytest.approx(expected, rel=0.01)
        assert var_y == pytest.approx(expected, rel=0.01)

    def test_anisotropic_footprint(self, cam):
        """Doubling one world axis quadruples that screen variance."""
        g = ([0.0, 0.0, 5.0], [1.0, 0.0, 0.0, 0.0], [0.16, 0.08, 0.08], 0.5, np.ones(3))
        out = render(scene_from([g]), Pose.identity(), cam)
        w = out.opacity
        ys, xs = np.mgrid[0 : cam.height, 0 : cam.width]
        total = w.sum()
        var_x = (w * (xs - 160.0) ** 2).sum() / total
        var_y = (w * (ys - 120.0) ** 2).sum() / total
        e = np.exp(-4.5)
        truncation = (1.0 - 5.5 * e) / (1.0 - e)
        assert var_x == pytest.approx(
            ((cam.fx * 0.16 / 5) ** 2 + COV2D_REGULARIZATION) * truncation, rel=0.01
        )
        assert var_y == pytest.approx(
            ((cam.fy * 0.08 / 5) ** 2 + COV2D_REGULARIZATION) * truncation, rel=0.01
        )

    def test_permutation_invariance_exact(self, cam, rng):
        scene = random_scene(rng, n=25)
        out_a = render(scene, Pose.identity(), cam)
        order = np.arange(len(scene))
        rng.shuffle(order)
        out_b = render(take(scene, order), Pose.identity(), cam)
        np.testing.assert_array_equal(out_a.rgb, out_b.rgb)
        np.testing.assert_array_equal(out_a.depth, out_b.depth)
        np.testing.assert_array_equal(out_a.opacity, out_b.opacity)

    def test_uniform_color_convexity(self, cam, rng):
        """With every gaussian the same color c over sky s, each pixel equals
        opacity * c + (1 - opacity) * s."""
        color = np.array([0.8, 0.3, 0.1])
        sky = np.array([0.2, 0.6, 0.9])
        gaussians = [
            (
                np.append(rng.uniform(-2, 2, 2), rng.uniform(3, 9)),
                random_unit_quaternion(rng),
                rng.uniform(0.05, 0.4, 3),
                float(rng.uniform(0.3, 1.0)),
                color,
            )
            for _ in range(20)
        ]
        out = render(scene_from(gaussians, sky=sky), Pose.identity(), cam)
        expected = out.opacity[:, :, None] * color + (1 - out.opacity[:, :, None]) * sky
        np.testing.assert_allclose(out.rgb, expected, atol=1e-6)

    def test_output_ranges(self, cam, rng):
        out = render(random_scene(rng, n=30), Pose.identity(), cam)
        assert np.all(out.opacity >= 0.0) and np.all(out.opacity <= 1.0 + 1e-12)
        assert np.all(out.rgb >= 0.0) and np.all(out.rgb <= 1.0)
        assert np.all(out.depth >= 0.0)

    def test_opacity_grows_with_more_gaussians(self, cam, rng):
        scene = random_scene(rng, n=20)
        prefix = render(take(scene, np.arange(10)), Pose.identity(), cam)
        full = render(scene, Pose.identity(), cam)
        assert np.all(full.opacity >= prefix.opacity - 1e-9)

    def test_depth_zero_where_opacity_low(self, cam):
        out = render(
            scene_from([isotropic([0, 0, 5], 0.1, opacity=0.9)]), Pose.identity(), cam
        )
        low = out.opacity < DEPTH_VALID_OPACITY
        assert np.all(out.depth[low] == 0.0)
        assert np.all(out.depth[~low] > 0.0)

    def test_saturated_pixel_is_pure_gaussian_color(self, cam):
        """Alpha 1 at the exact center pixel blocks the sky completely."""
        color = (0.3, 0.9, 0.6)
        out = render(
            scene_from([isotropic([0, 0, 5], 0.2, opacity=1.0, color=color)], sky=(1, 1, 1)),
            Pose.identity(),
            cam,
        )
        np.testing.assert_allclose(out.rgb[120, 160], color, atol=1e-12)
        assert out.opacity[120, 160] == pytest.approx(1.0, abs=1e-12)

    def test_occlusion_front_wins(self, cam):
        """An opaque near gaussian hides a far one along the same ray."""
        near = isotropic([0, 0, 4], 0.15, opacity=1.0, color=(1, 0, 0))
        far = isotropic([0, 0, 8], 0.3, opacity=1.0, color=(0, 1, 0))
        out = render(scene_from([far, near]), Pose.identity(), cam)
        np.testing.assert_allclose(out.rgb[120, 160], [1.0, 0.0, 0.0], atol=1e-12)
        assert out.depth[120, 160] == pytest.approx(4.0, abs=1e-6)

    def test_double_resolution_moves_peak(self):
        cam1 = CameraIntrinsics(fx=250, fy=250, cx=160, cy=120, width=320, height=240)
        cam2 = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240, width=640, height=480)
        g = isotropic([0.4, -0.2, 5], 0.1, opacity=0.9)
        out1 = render(scene_from([g]), Pose.identity(), cam1)
        out2 = render(scene_from([g]), Pose.identity(), cam2)
        p1 = np.unravel_index(np.argmax(out1.opacity), out1.opacity.shape)
        p2 = np.unravel_index(np.argmax(out2.opacity), out2.opacity.shape)
        assert abs(p2[0] - 2 * p1[0]) <= 1
        assert abs(p2[1] - 2 * p1[1]) <= 1

    def test_rotated_camera_sees_side_point(self, cam):
        """A point on +x appears at the image center after yawing 90 degrees."""
        pose = Pose(quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.pi / 2), np.zeros(3))
        out = render(scene_from([isotropic([5, 0, 0], 0.1, opacity=0.9)]), pose, cam)
        peak = np.unravel_index(np.argmax(out.opacity), out.opacity.shape)
        assert peak == (120, 160)

    def test_recoloured_scene_renders_new_color(self, cam):
        """A scene rebuilt with its first Gaussian recoloured renders the new
        color: rendering reads the scene's own arrays, never a stale copy."""
        red = scene_from([isotropic([0, 0, 5], 0.2, opacity=1.0, color=(1, 0, 0))])
        np.testing.assert_allclose(
            render(red, Pose.identity(), cam).rgb[120, 160], [1.0, 0.0, 0.0], atol=1e-12
        )
        colors = red.colors.copy()
        colors[0] = [0.0, 0.0, 1.0]
        blue = SplatScene(red.means, red.quats, red.scales, red.opacities, colors)
        np.testing.assert_allclose(
            render(blue, Pose.identity(), cam).rgb[120, 160], [0.0, 0.0, 1.0], atol=1e-12
        )

    def test_behind_camera_scene_renders_sky(self, cam):
        sky = (0.4, 0.4, 0.4)
        out = render(
            scene_from([isotropic([0, 0, -3, ], 0.2)], sky=sky), Pose.identity(), cam
        )
        assert np.all(out.rgb == np.array(sky))
        assert np.all(out.opacity == 0.0)


# ===========================================================================
# render against the reference loop, byte for byte
# ===========================================================================


def anisotropic_scene():
    """Thin rotated needles and flat discs: tight boxes far inside square ones."""
    rows = []
    for k, angle in enumerate(np.linspace(0.0, np.pi, 9)):
        quat = quat_from_axis_angle(np.array([0.3, 0.2, 1.0]), angle)
        mean = [-1.6 + 0.4 * k, 0.5 * np.sin(k), 5.0 + 0.3 * k]
        rows.append((mean, quat, [0.9, 0.01, 0.02], 0.9, (1.0, 0.2 * (k % 5), 0.3)))
        rows.append((mean, quat[[0, 3, 1, 2]], [0.01, 0.5, 0.004], 0.7, (0.1, 0.8, 0.5)))
    return scene_from(rows, sky=(0.3, 0.4, 0.5))


def border_scene(cam):
    """Gaussians centered on, just inside and just outside every edge and corner."""
    z = 5.0
    rows = []
    W, H = cam.width, cam.height
    for u in (-6.0, -0.5, 0.0, 3.2, W / 2, W - 2.7, W - 1, W + 5):
        for v in (-6.0, -0.5, 0.0, 2.9, H / 2, H - 3.1, H - 1, H + 5):
            mean = [(u - cam.cx) * z / cam.fx, (v - cam.cy) * z / cam.fy, z]
            color = (u / W % 1, 0.5, v / H % 1)
            rows.append((mean, [0.9, 0.1, -0.3, 0.2], [0.12, 0.05, 0.08], 0.8, color))
    return scene_from(rows, sky=(0.9, 0.9, 0.2))


def wall_scene(rng):
    """An opaque wall in front of random Gaussians: most pixels die early, so
    the skip test decides which later Gaussians composite at all."""
    rows = [
        ([x, y, 3.0], [1.0, 0.0, 0.0, 0.0], [0.1, 0.1, 0.05], 1.0, (0.6, 0.6, 0.6))
        for x in np.arange(-2.4, 2.5, 0.08)
        for y in np.arange(-1.8, 1.9, 0.08)
    ]
    rows += [
        (
            np.append(rng.uniform(-2, 2, 2), rng.uniform(3.5, 9)),
            random_unit_quaternion(rng),
            rng.uniform(0.05, 0.6, 3),
            float(rng.uniform(0.3, 1.0)),
            rng.uniform(0, 1, 3),
        )
        for _ in range(60)
    ]
    return scene_from(rows, sky=(0.0, 0.0, 1.0))


def sub_pixel_scene():
    """Gaussians far smaller than a pixel, at and between pixel centres."""
    rows = [
        ([0.0, 0.0, 5.0], [1.0, 0.0, 0.0, 0.0], np.full(3, 1e-4), 0.95, (1.0, 0.0, 0.0)),
        ([0.011, -0.007, 4.0], [0.5, 0.5, 0.5, 0.5], [2e-4, 1e-5, 3e-4], 0.6, (0.0, 1.0, 0.0)),
    ]
    return scene_from(rows, sky=(0.2, 0.2, 0.2))


def assert_renders_like_reference(scene, pose, cam):
    out = render(scene, pose, cam)
    expected = reference_render(scene, pose, cam)
    images = (out.rgb, out.depth, out.opacity)
    for image, ref in zip(images, (expected.rgb, expected.depth, expected.opacity)):
        assert image.dtype == np.float64 and image.flags.c_contiguous
        # A view would keep the whole buffer it points into alive.
        assert image.flags.owndata
        assert image.shape == ref.shape
        assert image.tobytes() == ref.tobytes()
    for k, image in enumerate(images):
        for other in images[k + 1 :]:
            assert not np.shares_memory(image, other)
    return out


class TestRenderMatchesReference:
    def test_rotated_anisotropic(self, cam):
        out = assert_renders_like_reference(anisotropic_scene(), Pose.identity(), cam)
        assert out.opacity.max() > 0.5

    def test_clipped_at_every_border(self, cam):
        out = assert_renders_like_reference(border_scene(cam), Pose.identity(), cam)
        for edge in (out.opacity[0], out.opacity[-1], out.opacity[:, 0], out.opacity[:, -1]):
            assert edge.max() > 0.1

    def test_opaque_wall_with_gaussians_behind(self, cam, rng):
        out = assert_renders_like_reference(wall_scene(rng), Pose.identity(), cam)
        assert np.mean(out.opacity > 1.0 - TRANSMITTANCE_FLOOR) > 0.5

    def test_sub_pixel(self, cam):
        out = assert_renders_like_reference(sub_pixel_scene(), Pose.identity(), cam)
        assert out.opacity[120, 160] > 0.5

    def test_synthetic_scene_at_trajectory_poses(self, cam):
        scene, trajectory = generate_synthetic_scene(3, SyntheticSceneConfig(n_gaussians=4000))
        for pose in (trajectory.poses[0], trajectory.poses[len(trajectory.poses) // 2]):
            assert_renders_like_reference(scene, pose, cam)


# ===========================================================================
# Image I/O
# ===========================================================================


class TestPpmIO:
    def test_roundtrip_within_quantization(self, tmp_path, rng):
        img = rng.uniform(0, 1, (24, 32, 3))
        path = tmp_path / "img.ppm"
        save_ppm(path, img)
        back = load_ppm(path)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_quantized_image_roundtrips_exactly(self, tmp_path):
        img = np.round(np.linspace(0, 1, 24 * 32 * 3) * 255).reshape(24, 32, 3) / 255
        path = tmp_path / "img.ppm"
        save_ppm(path, img)
        np.testing.assert_array_equal(load_ppm(path), img)

    def test_levels_roundtrip_exactly(self, tmp_path, rng):
        """The 8-bit core reads back the levels it wrote; the float API wraps it."""
        levels = rng.integers(0, 256, (24, 32, 3), dtype=np.uint8)
        save_ppm_levels(tmp_path / "levels.ppm", levels)
        back = load_ppm_levels(tmp_path / "levels.ppm")
        assert back.dtype == np.uint8 and back.tobytes() == levels.tobytes()
        assert load_ppm(tmp_path / "levels.ppm").tobytes() == (levels / 255.0).tobytes()
        save_ppm(tmp_path / "float.ppm", levels / 255.0)
        assert (tmp_path / "float.ppm").read_bytes() == (tmp_path / "levels.ppm").read_bytes()

    def test_to_levels_rounds_and_clips(self):
        image = np.array([[[-0.5, 0.0, 0.5 / 255]], [[0.5, 1.0, 1.5]]])
        levels = to_levels(image)
        assert levels.dtype == np.uint8
        np.testing.assert_array_equal(levels, [[[0, 0, 0]], [[128, 255, 255]]])

    def test_levels_must_be_uint8(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            save_ppm_levels(tmp_path / "img.ppm", np.zeros((4, 6, 3)))
        with pytest.raises(ValueError, match="H, W, 3"):
            save_ppm_levels(tmp_path / "img.ppm", np.zeros((4, 6), np.uint8))

    def test_header_is_p6(self, tmp_path):
        path = tmp_path / "img.ppm"
        save_ppm(path, np.zeros((4, 6, 3)))
        raw = path.read_bytes()
        assert raw.startswith(b"P6")
        assert b"6 4" in raw and b"255" in raw

    def test_reader_skips_comments(self, tmp_path):
        path = tmp_path / "img.ppm"
        pixels = bytes(range(2 * 2 * 3))
        path.write_bytes(b"P6\n# a comment\n2 2\n# another\n255\n" + pixels)
        img = load_ppm(path)
        assert img.shape == (2, 2, 3)
        assert img[0, 0, 0] == pytest.approx(0.0)
        assert img[1, 1, 2] == pytest.approx(11 / 255)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
        with pytest.raises(ImageFormatError, match="P6"):
            load_ppm(path)

    def test_wrong_maxval_raises(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(ImageFormatError, match="255"):
            load_ppm(path)

    def test_truncated_data_raises(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(ImageFormatError):
            load_ppm(path)

    @pytest.mark.parametrize("size", [b"0 5", b"5 0", b"0 0", b"-2 5", b"5 -2", b"-2 -3"])
    def test_non_positive_dimensions_raise(self, tmp_path, size):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(30))
        with pytest.raises(ImageFormatError, match="bad PPM dimensions"):
            load_ppm(path)

    def test_non_integer_size_raises(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2.5 2\n255\n" + bytes(12))
        with pytest.raises(ImageFormatError, match=f"^{path}: malformed PPM header$"):
            load_ppm_levels(path)


class TestDepthIO:
    def test_roundtrip_exact_float32(self, tmp_path, rng):
        depth = rng.uniform(0, 50, (24, 32)).astype(np.float32).astype(np.float64)
        path = tmp_path / "d.depth"
        save_depth(path, depth)
        np.testing.assert_array_equal(load_depth_f32(path).astype(np.float64), depth)

    def test_float32_core(self, tmp_path, rng):
        """load_depth_f32 returns the stored float32 values."""
        depth = rng.uniform(0, 50, (24, 32)).astype(np.float32)
        save_depth(tmp_path / "d.depth", depth)
        back = load_depth_f32(tmp_path / "d.depth")
        assert back.dtype == np.float32 and back.tobytes() == depth.tobytes()

    def test_zero_depth_preserved(self, tmp_path):
        depth = np.zeros((8, 8))
        depth[3, 4] = 7.5
        path = tmp_path / "d.depth"
        save_depth(path, depth)
        back = load_depth_f32(path)
        assert back[0, 0] == 0.0
        assert back[3, 4] == 7.5

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "d.depth"
        save_depth(path, np.zeros((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ImageFormatError):
            load_depth_f32(path)

    def test_bad_channel_count_raises(self, tmp_path):
        import struct

        path = tmp_path / "d.depth"
        path.write_bytes(struct.pack("<iii", 2, 2, 3) + bytes(4 * 4 * 3))
        with pytest.raises(ImageFormatError):
            load_depth_f32(path)

    def test_file_shorter_than_header_raises(self, tmp_path):
        path = tmp_path / "d.depth"
        path.write_bytes(bytes(11))
        with pytest.raises(ImageFormatError, match=f"^{path}: missing depth header$"):
            load_depth_f32(path)

    def test_save_needs_a_2d_image(self, tmp_path):
        with pytest.raises(ValueError, match=r"^expected an \(H, W\) depth image$"):
            save_depth(tmp_path / "d.depth", np.zeros((4, 4, 1)))
