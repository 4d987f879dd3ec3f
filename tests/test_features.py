"""Keypoint detection, descriptor matching, the ground-truth match generator,
and the match exchange format."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from splatreloc import (
    Keypoints,
    Matches,
    MatchFileError,
    OracleConfig,
    Pose,
    load_matches,
    match_features,
    oracle_match,
    save_matches,
)
from splatreloc.features import (
    DESCRIPTOR_DIM,
    MIN_IMAGE_DIM,
    DetectorConfig,
    MatcherConfig,
    detect_and_describe,
    match_stats,
    to_grayscale,
)
from splatreloc.renderer import render


def square_image(corner=(50, 60), size=(31, 26), shape=(96, 128)):
    """Bright axis-aligned rectangle on black, softened for stable gradients."""
    img = np.zeros(shape)
    x0, y0 = corner
    img[y0 : y0 + size[1], x0 : x0 + size[0]] = 1.0
    img = gaussian_filter(img, 1.0)
    return np.stack([img] * 3, axis=-1)


@pytest.fixture(scope="module")
def render_pair(small_scene, small_trajectory, cam):
    """Two renders of the shared scene from slightly offset viewpoints."""
    pose_ref = small_trajectory.poses[0]
    pose_query = Pose(pose_ref.rotation, pose_ref.translation + np.array([0.2, 0.0, 0.0]))
    out_ref = render(small_scene, pose_ref, cam)
    out_query = render(small_scene, pose_query, cam)
    return pose_ref, out_ref, pose_query, out_query


# ===========================================================================
# Grayscale conversion
# ===========================================================================


class TestToGrayscale:
    def test_luminance_weights(self):
        img = np.zeros((2, 2, 3))
        img[0, 0] = [1, 0, 0]
        img[0, 1] = [0, 1, 0]
        img[1, 0] = [0, 0, 1]
        img[1, 1] = [1, 1, 1]
        gray = to_grayscale(img)
        assert gray[0, 0] == pytest.approx(0.299)
        assert gray[0, 1] == pytest.approx(0.587)
        assert gray[1, 0] == pytest.approx(0.114)
        assert gray[1, 1] == pytest.approx(1.0)

    def test_2d_passthrough(self):
        img = np.random.default_rng(0).uniform(0, 1, (4, 5))
        np.testing.assert_array_equal(to_grayscale(img), img)


# ===========================================================================
# Detector
# ===========================================================================


class TestDetector:
    def test_finds_square_corners_within_2px(self):
        kps, _ = detect_and_describe(square_image())
        assert len(kps) >= 4
        for corner in [(50.0, 60.0), (80.0, 60.0), (50.0, 85.0), (80.0, 85.0)]:
            nearest = np.linalg.norm(kps.positions - np.array(corner), axis=1).min()
            assert nearest < 2.0

    def test_deterministic(self):
        img = square_image()
        kps_a, desc_a = detect_and_describe(img)
        kps_b, desc_b = detect_and_describe(img)
        assert len(kps_a) == len(kps_b)
        np.testing.assert_array_equal(kps_a.positions, kps_b.positions)
        np.testing.assert_array_equal(kps_a.scores, kps_b.scores)
        np.testing.assert_array_equal(desc_a, desc_b)

    def test_constant_image_yields_nothing(self):
        kps, desc = detect_and_describe(np.full((64, 64, 3), 0.5))
        assert len(kps) == 0
        assert desc.shape == (0, DESCRIPTOR_DIM)

    def test_too_small_image_raises(self):
        with pytest.raises(ValueError, match="32"):
            detect_and_describe(np.zeros((16, 64, 3)))

    def test_descriptors_unit_norm(self, render_pair):
        _, out_ref, _, _ = render_pair
        _, desc = detect_and_describe(out_ref.rgb)
        assert desc.shape[1] == DESCRIPTOR_DIM
        np.testing.assert_allclose(np.linalg.norm(desc, axis=1), 1.0, atol=1e-9)

    def test_sorted_by_descending_score(self, render_pair):
        _, out_ref, _, _ = render_pair
        kps, _ = detect_and_describe(out_ref.rgb)
        scores = kps.scores.tolist()
        assert scores == sorted(scores, reverse=True)

    def test_max_keypoints_respected(self, render_pair):
        _, out_ref, _, _ = render_pair
        config = DetectorConfig(max_keypoints=10)
        kps, desc = detect_and_describe(out_ref.rgb, config)
        assert len(kps) <= 10
        assert desc.shape[0] == len(kps)

    def test_keypoints_inside_image(self, render_pair):
        _, out_ref, _, _ = render_pair
        kps, _ = detect_and_describe(out_ref.rgb)
        H, W = out_ref.rgb.shape[:2]
        for u, v in kps.positions:
            assert 0 <= u < W
            assert 0 <= v < H

    def test_nms_enforces_min_spacing(self, render_pair):
        _, out_ref, _, _ = render_pair
        config = DetectorConfig(nms_radius=6.0)
        kps, _ = detect_and_describe(out_ref.rgb, config)
        pts = kps.positions
        diffs = pts[:, None, :] - pts[None, :, :]
        dists = np.linalg.norm(diffs, axis=-1) + np.eye(len(pts)) * 1e9
        assert dists.min() >= 6.0 - 1e-9


# ---------------------------------------------------------------------------
# The former detector, kept as the reference
# ---------------------------------------------------------------------------


def reference_harris_response(gray: np.ndarray, sigma: float, k: float) -> np.ndarray:
    """Harris corner response det(M) - k * trace(M)^2 at blur scale sigma."""
    smoothed = gaussian_filter(gray, sigma, mode="nearest")
    gy, gx = np.gradient(smoothed)
    sxx = gaussian_filter(gx * gx, 1.5 * sigma, mode="nearest")
    sxy = gaussian_filter(gx * gy, 1.5 * sigma, mode="nearest")
    syy = gaussian_filter(gy * gy, 1.5 * sigma, mode="nearest")
    return (sxx * syy - sxy * sxy) - k * (sxx + syy) ** 2


def reference_subpixel_refine(response: np.ndarray, row: int, col: int) -> np.ndarray:
    """Quadratic peak interpolation, clamped to half a pixel per axis."""
    u, v = float(col), float(row)
    if 0 < col < response.shape[1] - 1:
        left, mid, right = response[row, col - 1], response[row, col], response[row, col + 1]
        denom = left - 2.0 * mid + right
        if abs(denom) > 1e-12:
            u += float(np.clip(0.5 * (left - right) / denom, -0.5, 0.5))
    if 0 < row < response.shape[0] - 1:
        top, mid, bot = response[row - 1, col], response[row, col], response[row + 1, col]
        denom = top - 2.0 * mid + bot
        if abs(denom) > 1e-12:
            v += float(np.clip(0.5 * (top - bot) / denom, -0.5, 0.5))
    return np.array([u, v])


def reference_describe(
    gx: np.ndarray, gy: np.ndarray, keypoint_uv: np.ndarray, sigma: float
) -> np.ndarray | None:
    """128-dim gradient-orientation patch descriptor (4x4 cells x 8 bins).

    Samples a 16x16 grid spaced by the detection sigma around the keypoint,
    using bilinear interpolation of the precomputed image gradients.  Returns
    None when the support window leaves the image or the patch is flat.
    """
    H, W = gx.shape
    u0, v0 = keypoint_uv
    offsets = (np.arange(16) - 7.5) * sigma
    us = u0 + offsets[None, :] + np.zeros((16, 1))
    vs = v0 + offsets[:, None] + np.zeros((1, 16))
    if us.min() < 0 or us.max() > W - 2 or vs.min() < 0 or vs.max() > H - 2:
        return None

    uf = np.floor(us).astype(int)
    vf = np.floor(vs).astype(int)
    au = us - uf
    av = vs - vf

    def sample(img: np.ndarray) -> np.ndarray:
        return (
            img[vf, uf] * (1 - au) * (1 - av)
            + img[vf, uf + 1] * au * (1 - av)
            + img[vf + 1, uf] * (1 - au) * av
            + img[vf + 1, uf + 1] * au * av
        )

    gx_s = sample(gx)
    gy_s = sample(gy)
    mag = np.hypot(gx_s, gy_s)
    ori = np.arctan2(gy_s, gx_s)  # [-pi, pi]

    bins = np.floor((ori + np.pi) / (2.0 * np.pi) * 8.0).astype(int) % 8
    desc = np.zeros((4, 4, 8))
    for block_row in range(4):
        for block_col in range(4):
            sub_bins = bins[block_row * 4 : block_row * 4 + 4, block_col * 4 : block_col * 4 + 4]
            sub_mag = mag[block_row * 4 : block_row * 4 + 4, block_col * 4 : block_col * 4 + 4]
            desc[block_row, block_col] = np.bincount(
                sub_bins.ravel(), weights=sub_mag.ravel(), minlength=8
            )
    flat = desc.reshape(-1)
    norm = float(np.linalg.norm(flat))
    if norm < 1e-12:
        return None
    return flat / norm


def reference_detect(
    image: np.ndarray, config: DetectorConfig | None = None
) -> tuple[Keypoints, np.ndarray]:
    """The per-peak, per-keypoint detector, kept as the reference for
    ``detect_and_describe``: one refine call per peak, candidate tuples, a
    grid for NMS, one describe call per keypoint, and each scale smoothed
    again for the descriptor gradients."""
    config = config or DetectorConfig()
    gray = to_grayscale(image)
    if min(gray.shape) < MIN_IMAGE_DIM:
        raise ValueError(
            f"image must be at least {MIN_IMAGE_DIM}px on each side, got {gray.shape}"
        )

    candidates: list[tuple[float, float, float, np.ndarray]] = []  # score, v, u, (u, v, sigma)
    global_max = 0.0
    responses = {}
    for sigma in config.scales:
        resp = reference_harris_response(gray, sigma, config.harris_k)
        responses[sigma] = resp
        global_max = max(global_max, float(resp.max(initial=0.0)))
    if global_max <= config.abs_threshold:
        return Keypoints.empty(), np.zeros((0, DESCRIPTOR_DIM))

    threshold = max(config.abs_threshold, config.rel_threshold * global_max)
    for sigma in config.scales:
        resp = responses[sigma]
        # 3x3 local maxima above threshold.
        interior = resp[1:-1, 1:-1]
        is_peak = (
            (interior >= resp[:-2, :-2]) & (interior >= resp[:-2, 1:-1]) & (interior >= resp[:-2, 2:])
            & (interior >= resp[1:-1, :-2]) & (interior >= resp[1:-1, 2:])
            & (interior >= resp[2:, :-2]) & (interior >= resp[2:, 1:-1]) & (interior >= resp[2:, 2:])
            & (interior > threshold)
        )
        rows, cols = np.nonzero(is_peak)
        for row, col in zip(rows + 1, cols + 1):
            uv = reference_subpixel_refine(resp, row, col)
            score = float(resp[row, col] / global_max)
            candidates.append((score, uv[1], uv[0], np.array([uv[0], uv[1], sigma])))

    # Greedy NMS across scales: strongest first, suppress within nms_radius.
    # A coarse occupancy grid keeps the neighbor search O(1) per candidate.
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    kept: list[tuple[float, np.ndarray]] = []
    cell = max(config.nms_radius, 1.0)
    r2 = config.nms_radius**2
    occupied: dict[tuple[int, int], list[np.ndarray]] = {}
    for score, _, _, packed in candidates:
        uv = packed[:2]
        key = (int(uv[0] // cell), int(uv[1] // cell))
        suppressed = False
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in occupied.get((key[0] + dx, key[1] + dy), ()):
                    if float(np.sum((uv - other) ** 2)) < r2:
                        suppressed = True
                        break
                if suppressed:
                    break
            if suppressed:
                break
        if suppressed:
            continue
        kept.append((score, packed))
        occupied.setdefault(key, []).append(uv)
        if len(kept) >= 4 * config.max_keypoints:
            break

    gradients = {}
    for sigma in config.scales:
        gy, gx = np.gradient(gaussian_filter(gray, sigma, mode="nearest"))
        gradients[sigma] = (gx, gy)
    rows: list[np.ndarray] = []  # (u, v, sigma)
    scores: list[float] = []
    descriptors: list[np.ndarray] = []
    for score, packed in kept:
        uv, sigma = packed[:2], float(packed[2])
        gx, gy = gradients[sigma]
        desc = reference_describe(gx, gy, uv, sigma)
        if desc is None:
            continue
        rows.append(packed)
        scores.append(score)
        descriptors.append(desc)
        if len(rows) >= config.max_keypoints:
            break
    table = np.reshape(rows, (-1, 3))
    keypoints = Keypoints(positions=table[:, :2], scales=table[:, 2], scores=scores)
    return keypoints, np.reshape(descriptors, (-1, DESCRIPTOR_DIM))


@pytest.fixture(scope="module")
def detector_images(render_pair, small_scene, small_trajectory, cam):
    """Three renders of the shared scene, a soft square and a constant image."""
    _, out_ref, _, out_query = render_pair
    mid = small_trajectory.poses[len(small_trajectory) // 2]
    return {
        "render_ref": out_ref.rgb,
        "render_query": out_query.rgb,
        "render_mid": render(small_scene, mid, cam).rgb,
        "square": square_image(),
        "constant": np.full((64, 64, 3), 0.5),
    }


DETECTOR_CONFIGS = {
    "defaults": DetectorConfig(),
    "low_threshold": DetectorConfig(abs_threshold=1e-12, rel_threshold=1e-3),
    "max_keypoints_5": DetectorConfig(max_keypoints=5),
    "max_keypoints_0": DetectorConfig(max_keypoints=0),  # the loops still keep one
    "nms_radius_half": DetectorConfig(nms_radius=0.5),
    "one_scale": DetectorConfig(scales=(2.0,)),
}


class TestDetectorMatchesReference:
    """The array detector returns the former loop's keypoints and descriptors
    bit for bit, in order."""

    @pytest.mark.parametrize("config_name", list(DETECTOR_CONFIGS))
    @pytest.mark.parametrize(
        "image_name", ["render_ref", "render_query", "render_mid", "square", "constant"]
    )
    def test_same_bytes(self, detector_images, image_name, config_name):
        image = detector_images[image_name]
        config = DETECTOR_CONFIGS[config_name]
        kps, desc = detect_and_describe(image, config)
        ref_kps, ref_desc = reference_detect(image, config)
        for got, expected in (
            (kps.positions, ref_kps.positions),
            (kps.scales, ref_kps.scales),
            (kps.scores, ref_kps.scores),
            (desc, ref_desc),
        ):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        assert (len(kps) == 0) == (image_name == "constant")


# ===========================================================================
# Matching
# ===========================================================================


class TestMatchFeatures:
    def test_self_matching_is_identity(self, render_pair):
        _, out_ref, _, _ = render_pair
        kps, desc = detect_and_describe(out_ref.rgb)
        matches = match_features(kps, desc, kps, desc)
        assert len(matches) == len(kps)
        for query, ref, confidence in zip(matches.query, matches.ref, matches.confidence):
            np.testing.assert_array_equal(query, ref)
            assert confidence == pytest.approx(1.0)

    def test_symmetric_under_swap(self, render_pair):
        _, out_ref, _, out_query = render_pair
        kps_a, desc_a = detect_and_describe(out_query.rgb)
        kps_b, desc_b = detect_and_describe(out_ref.rgb)
        forward = match_features(kps_a, desc_a, kps_b, desc_b)
        backward = match_features(kps_b, desc_b, kps_a, desc_a)
        fwd_pairs = set(zip(map(tuple, forward.query), map(tuple, forward.ref)))
        bwd_pairs = set(zip(map(tuple, backward.ref), map(tuple, backward.query)))
        assert fwd_pairs == bwd_pairs

    def test_one_to_one(self, render_pair):
        _, out_ref, _, out_query = render_pair
        kps_a, desc_a = detect_and_describe(out_query.rgb)
        kps_b, desc_b = detect_and_describe(out_ref.rgb)
        matches = match_features(kps_a, desc_a, kps_b, desc_b)
        ref_keys = [tuple(p) for p in matches.ref]
        query_keys = [tuple(p) for p in matches.query]
        assert len(set(ref_keys)) == len(ref_keys)
        assert len(set(query_keys)) == len(query_keys)

    def test_stricter_ratio_gives_subset(self, render_pair):
        _, out_ref, _, out_query = render_pair
        kps_a, desc_a = detect_and_describe(out_query.rgb)
        kps_b, desc_b = detect_and_describe(out_ref.rgb)
        loose = match_features(kps_a, desc_a, kps_b, desc_b, MatcherConfig(ratio=0.9))
        strict = match_features(kps_a, desc_a, kps_b, desc_b, MatcherConfig(ratio=0.6))
        loose_pairs = set(zip(map(tuple, loose.query), map(tuple, loose.ref)))
        strict_pairs = set(zip(map(tuple, strict.query), map(tuple, strict.ref)))
        assert strict_pairs <= loose_pairs

    def test_confidences_in_range(self, render_pair):
        _, out_ref, _, out_query = render_pair
        kps_a, desc_a = detect_and_describe(out_query.rgb)
        kps_b, desc_b = detect_and_describe(out_ref.rgb)
        for confidence in match_features(kps_a, desc_a, kps_b, desc_b).confidence:
            assert 0.0 <= confidence <= 1.0

    def test_empty_inputs(self):
        empty = Keypoints.empty()
        assert len(match_features(empty, np.zeros((0, 128)), empty, np.zeros((0, 128)))) == 0

    def test_cross_view_matches_agree_with_geometry(self, render_pair, cam):
        """Lift each reference match pixel through the rendered depth and
        reproject into the true query camera: matched pixels must land there."""
        pose_ref, out_ref, pose_query, out_query = render_pair
        kps_q, desc_q = detect_and_describe(out_query.rgb)
        kps_r, desc_r = detect_and_describe(out_ref.rgb)
        matches = match_features(kps_q, desc_q, kps_r, desc_r)
        assert len(matches) >= 30

        w2c = pose_query.inverse()
        checked, good = 0, 0
        for pixel_query, pixel_ref in zip(matches.query, matches.ref):
            iu, iv = int(round(pixel_ref[0])), int(round(pixel_ref[1]))
            if not (0 <= iu < cam.width and 0 <= iv < cam.height):
                continue
            d = out_ref.depth[iv, iu]
            if d <= 0:
                continue
            world = pose_ref.apply(cam.backproject(pixel_ref, np.array([d])))[0]
            local = w2c.apply(world)
            if local[2] <= 0:
                continue
            projected = cam.project(local[None])[0]
            checked += 1
            if np.linalg.norm(projected - pixel_query) < 3.0:
                good += 1
        assert checked >= 30
        assert good / checked >= 0.9


def reference_match_features(keypoints_a, descriptors_a, keypoints_b, descriptors_b, ratio=0.8):
    """The former per-query matching loop, kept as the reference.

    Returns the (query, ref, confidence) arrays in the loop's order.
    """
    na, nb = len(keypoints_a), len(keypoints_b)
    if na == 0 or nb == 0:
        return np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0)

    dots = descriptors_a @ descriptors_b.T
    d2 = np.maximum(2.0 - 2.0 * dots, 0.0)

    nn_ab = np.argmin(d2, axis=1)
    nn_ba = np.argmin(d2, axis=0)

    def ratio_along(dist_row, best_idx):
        if dist_row.size < 2:
            return 0.0
        best = np.sqrt(dist_row[best_idx])
        rest = np.delete(dist_row, best_idx)
        second = np.sqrt(rest.min())
        if second < 1e-12:
            return 1.0
        return float(best / second)

    candidates = []
    for ia in range(na):
        ib = int(nn_ab[ia])
        if int(nn_ba[ib]) != ia:
            continue
        ratio_a = ratio_along(d2[ia, :], ib)
        ratio_b = ratio_along(d2[:, ib], ia)
        worst = max(ratio_a, ratio_b)
        if worst > ratio:
            continue
        confidence = float(np.clip(1.0 - worst, 0.0, 1.0))
        candidates.append((float(d2[ia, ib]), ia, ib, confidence))

    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    used_a, used_b = set(), set()
    query, ref, confidences = [], [], []
    for _, ia, ib, confidence in candidates:
        if ia in used_a or ib in used_b:
            continue
        used_a.add(ia)
        used_b.add(ib)
        query.append(keypoints_a.positions[ia])
        ref.append(keypoints_b.positions[ib])
        confidences.append(confidence)
    return (
        np.array(query).reshape(-1, 2),
        np.array(ref).reshape(-1, 2),
        np.array(confidences, dtype=np.float64),
    )


class TestMatchFeaturesMatchesReference:
    """The array matcher returns the former loop's matches bit for bit, in order."""

    def assert_same(self, kps_a, desc_a, kps_b, desc_b, ratio=0.8):
        got = match_features(kps_a, desc_a, kps_b, desc_b, MatcherConfig(ratio=ratio))
        query, ref, confidence = reference_match_features(kps_a, desc_a, kps_b, desc_b, ratio)
        assert got.query.tobytes() == query.tobytes()
        assert got.ref.tobytes() == ref.tobytes()
        assert got.confidence.tobytes() == confidence.tobytes()
        return got

    def test_render_pair(self, render_pair):
        _, out_ref, _, out_query = render_pair
        kps_q, desc_q = detect_and_describe(out_query.rgb)
        kps_r, desc_r = detect_and_describe(out_ref.rgb)
        for ratio in (0.6, 0.8, 1.0):
            got = self.assert_same(kps_q, desc_q, kps_r, desc_r, ratio)
        assert len(got) >= 30

    def test_swapped_pair(self, render_pair):
        _, out_ref, _, out_query = render_pair
        kps_q, desc_q = detect_and_describe(out_query.rgb)
        kps_r, desc_r = detect_and_describe(out_ref.rgb)
        assert len(self.assert_same(kps_r, desc_r, kps_q, desc_q)) >= 30

    def test_self_matching_ties(self, render_pair):
        """Every self-match has distance 0, so the order rests on the tie-break."""
        _, out_ref, _, _ = render_pair
        kps, desc = detect_and_describe(out_ref.rgb)
        got = self.assert_same(kps, desc, kps, desc)
        assert len(got) == len(kps)

    def test_single_keypoint_sides(self, render_pair):
        """A side with one keypoint has no second best: its ratio is 0."""
        _, out_ref, _, out_query = render_pair
        kps_q, desc_q = detect_and_describe(out_query.rgb)
        kps_r, desc_r = detect_and_describe(out_ref.rgb)
        assert len(self.assert_same(kps_q[:1], desc_q[:1], kps_r, desc_r, 1.0)) == 1
        assert len(self.assert_same(kps_q, desc_q, kps_r[:1], desc_r[:1], 1.0)) == 1
        assert len(self.assert_same(kps_q[:1], desc_q[:1], kps_r[:1], desc_r[:1])) == 1

    def test_duplicate_descriptors_give_ratio_one(self, render_pair):
        """A repeated descriptor makes the second best distance 0: ratio 1."""
        _, out_ref, _, _ = render_pair
        kps, desc = detect_and_describe(out_ref.rgb)
        doubled = Keypoints(
            np.vstack([kps.positions, kps.positions + 0.5]),
            np.concatenate([kps.scales, kps.scales]),
            np.concatenate([kps.scores, kps.scores]),
        )
        both = np.vstack([desc, desc])
        assert len(self.assert_same(kps, desc, doubled, both, 1.0)) > 0
        assert len(self.assert_same(kps, desc, doubled, both)) == 0


# ===========================================================================
# Keypoint and match records
# ===========================================================================


class TestKeypointsRecord:
    def test_fields_become_float_arrays(self):
        kps = Keypoints(positions=[[1, 2], [3, 4]], scales=[1, 2], scores=[1, 0.5])
        assert len(kps) == 2
        assert kps.positions.dtype == np.float64 and kps.positions.shape == (2, 2)
        assert kps.scales.shape == (2,) and kps.scores.shape == (2,)

    def test_empty(self):
        kps = Keypoints.empty()
        assert len(kps) == 0
        assert kps.positions.shape == (0, 2)
        assert len(Keypoints(np.zeros((0, 2)), [], [])) == 0

    def test_mismatched_rows_raise(self):
        with pytest.raises(ValueError, match="row counts"):
            Keypoints(np.zeros((3, 2)), np.ones(2), np.ones(3))
        with pytest.raises(ValueError, match="row counts"):
            Keypoints(np.zeros((3, 2)), np.ones(3), np.ones(4))

    def test_wrong_columns_raise(self):
        with pytest.raises(ValueError, match="positions"):
            Keypoints(np.zeros((3, 3)), np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="positions"):
            Keypoints(np.zeros(6), np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="scales"):
            Keypoints(np.zeros((3, 2)), np.ones((3, 1)), np.ones(3))

    def test_getitem(self, render_pair):
        _, out_ref, _, _ = render_pair
        kps, _ = detect_and_describe(out_ref.rgb)
        mask = kps.scores > np.median(kps.scores)
        picked = kps[mask]
        assert len(picked) == int(mask.sum())
        np.testing.assert_array_equal(picked.positions, kps.positions[mask])
        np.testing.assert_array_equal(picked.scales, kps.scales[mask])
        np.testing.assert_array_equal(picked.scores, kps.scores[mask])
        np.testing.assert_array_equal(kps[2:5].positions, kps.positions[2:5])
        np.testing.assert_array_equal(kps[np.array([4, 0])].scores, kps.scores[[4, 0]])


class TestMatchesRecord:
    def make(self, n=6):
        rng = np.random.default_rng(1)
        return Matches(
            rng.uniform(0, 100, (n, 2)), rng.uniform(0, 100, (n, 2)), rng.uniform(0, 1, n)
        )

    def test_confidence_outside_unit_interval_raises(self):
        for bad in (-0.1, 1.5, np.nan):
            with pytest.raises(ValueError, match=r"match confidence must lie in \[0, 1\]"):
                Matches(np.zeros((2, 2)), np.zeros((2, 2)), [0.5, bad])

    def test_confidence_bounds_are_inclusive(self):
        assert len(Matches(np.zeros((2, 2)), np.zeros((2, 2)), [0.0, 1.0])) == 2

    def test_mismatched_rows_raise(self):
        with pytest.raises(ValueError, match="row counts"):
            Matches(np.zeros((3, 2)), np.zeros((2, 2)), np.ones(3))
        with pytest.raises(ValueError, match="row counts"):
            Matches(np.zeros((3, 2)), np.zeros((3, 2)), np.ones(2))

    def test_wrong_columns_raise(self):
        with pytest.raises(ValueError, match="query"):
            Matches(np.zeros((3, 3)), np.zeros((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="ref"):
            Matches(np.zeros((3, 2)), np.zeros((3, 1)), np.ones(3))
        with pytest.raises(ValueError, match="ref"):
            Matches(np.zeros((3, 2)), np.zeros(6), np.ones(3))
        with pytest.raises(ValueError, match="confidence"):
            Matches(np.zeros((3, 2)), np.zeros((3, 2)), np.ones((3, 1)))

    def test_empty(self):
        matches = Matches.empty()
        assert len(matches) == 0
        assert matches.query.shape == (0, 2) and matches.ref.shape == (0, 2)
        assert matches.confidence.shape == (0,)
        assert len(self.make()[np.zeros(6, dtype=bool)]) == 0

    def test_getitem(self):
        matches = self.make()
        mask = np.array([True, False, True, True, False, False])
        picked = matches[mask]
        assert len(picked) == 3
        np.testing.assert_array_equal(picked.query, matches.query[mask])
        np.testing.assert_array_equal(picked.ref, matches.ref[mask])
        np.testing.assert_array_equal(picked.confidence, matches.confidence[mask])
        np.testing.assert_array_equal(matches[1:3].ref, matches.ref[1:3])
        np.testing.assert_array_equal(matches[np.array([5, 0])].query, matches.query[[5, 0]])


# ===========================================================================
# Match statistics
# ===========================================================================


class TestMatchStats:
    def test_empty(self, cam):
        stats = match_stats(Matches.empty(), cam)
        assert stats.count == 0
        assert stats.mean_confidence == 0.0
        assert stats.uniformity == 0.0

    def test_uniform_coverage_is_one(self, cam):
        """One match per 8x8 grid cell maximizes the occupancy entropy."""
        query = [[20.0 + 40.0 * i, 15.0 + 30.0 * j] for i in range(8) for j in range(8)]
        matches = Matches(query=query, ref=np.zeros((64, 2)), confidence=np.ones(64))
        stats = match_stats(matches, cam)
        assert stats.count == 64
        assert stats.uniformity == pytest.approx(1.0, abs=1e-12)

    def test_single_cell_is_zero(self, cam):
        query = [[10.0 + 0.1 * k, 10.0] for k in range(5)]
        matches = Matches(query=query, ref=np.zeros((5, 2)), confidence=np.full(5, 0.5))
        assert match_stats(matches, cam).uniformity == pytest.approx(0.0, abs=1e-12)

    def test_mean_confidence(self, cam):
        matches = Matches(
            query=[[10.0, 10.0], [200.0, 200.0]], ref=np.zeros((2, 2)), confidence=[0.2, 0.8]
        )
        assert match_stats(matches, cam).mean_confidence == pytest.approx(0.5)


# ===========================================================================
# Ground-truth match generator
# ===========================================================================


def flat_depth(cam, value=5.0):
    return np.full((cam.height, cam.width), value)


class TestOracleMatch:
    def test_zero_noise_is_reprojection_exact(self, cam):
        """Each clean match's reference pixel, lifted through the depth and
        projected into the query camera, hits the query pixel exactly."""
        ref_pose = Pose.identity()
        query_pose = Pose(
            np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.3, -0.1, 0.2])
        )
        depth = flat_depth(cam)
        config = OracleConfig(n=200, seed=5)
        matches, outliers = oracle_match(query_pose, ref_pose, depth, cam, config)
        assert not outliers.any()
        w2c = query_pose.inverse()
        for pixel_query, pixel_ref in zip(matches.query, matches.ref):
            iu, iv = int(pixel_ref[0]), int(pixel_ref[1])
            world = ref_pose.apply(
                cam.backproject(pixel_ref, np.array([depth[iv, iu]]))
            )[0]
            projected = cam.project(w2c.apply(world)[None])[0]
            np.testing.assert_allclose(projected, pixel_query, atol=1e-9)

    def test_same_pose_keeps_all_samples(self, cam):
        pose = Pose.identity()
        matches, _ = oracle_match(
            pose, pose, flat_depth(cam), cam, OracleConfig(n=150, seed=1)
        )
        assert len(matches) == 150
        for pixel_query, pixel_ref in zip(matches.query, matches.ref):
            np.testing.assert_allclose(pixel_query, pixel_ref, atol=1e-9)

    def test_reference_pixels_respect_border_margin(self, cam):
        config = OracleConfig(n=300, seed=2, border_margin=3)
        matches, _ = oracle_match(
            Pose.identity(), Pose.identity(), flat_depth(cam), cam, config
        )
        for u, v in matches.ref:
            assert 3 <= u < cam.width - 3
            assert 3 <= v < cam.height - 3

    def test_noise_standard_deviation(self, cam):
        """With identical poses the query-side displacement is exactly the
        injected gaussian noise."""
        pose = Pose.identity()
        sigma = 1.5
        config = OracleConfig(n=400, pixel_noise_sigma=sigma, seed=3)
        matches, _ = oracle_match(pose, pose, flat_depth(cam), cam, config)
        residuals = (matches.query - matches.ref).ravel()
        assert abs(residuals.std() - sigma) < 0.2
        assert abs(residuals.mean()) < 0.2

    def test_outlier_count_exact(self, cam):
        config = OracleConfig(n=100, outlier_fraction=0.2, seed=4)
        matches, outliers = oracle_match(
            Pose.identity(), Pose.identity(), flat_depth(cam), cam, config
        )
        assert len(matches) == 100
        assert int(outliers.sum()) == 20
        for confidence, is_outlier in zip(matches.confidence, outliers):
            assert confidence == (0.0 if is_outlier else 1.0)

    def test_deterministic_per_rng(self, cam):
        config = OracleConfig(n=50, pixel_noise_sigma=0.5, outlier_fraction=0.1, seed=9)
        a, mask_a = oracle_match(
            Pose.identity(), Pose.identity(), flat_depth(cam), cam, config
        )
        b, mask_b = oracle_match(
            Pose.identity(), Pose.identity(), flat_depth(cam), cam, config
        )
        np.testing.assert_array_equal(mask_a, mask_b)
        np.testing.assert_array_equal(a.query, b.query)
        np.testing.assert_array_equal(a.ref, b.ref)

    def test_external_rng_overrides_seed(self, cam):
        config = OracleConfig(n=50, seed=0)
        rng_a = np.random.default_rng([123, 1])
        rng_b = np.random.default_rng([123, 1])
        a, _ = oracle_match(
            Pose.identity(), Pose.identity(), flat_depth(cam), cam, config, rng_a
        )
        b, _ = oracle_match(
            Pose.identity(), Pose.identity(), flat_depth(cam), cam, config, rng_b
        )
        np.testing.assert_array_equal(a.ref, b.ref)

    def test_too_few_valid_pixels_raises(self, cam):
        depth = np.zeros((cam.height, cam.width))
        depth[100:103, 100:103] = 5.0
        with pytest.raises(ValueError, match="valid"):
            oracle_match(
                Pose.identity(), Pose.identity(), depth, cam, OracleConfig(n=100)
            )

    def test_overlap_loss_drops_matches(self, cam):
        """A strongly rotated query sees only part of the reference frustum."""
        from splatreloc.geometry import quat_from_axis_angle

        query = Pose(
            quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.radians(25.0)),
            np.zeros(3),
        )
        matches, _ = oracle_match(
            query, Pose.identity(), flat_depth(cam), cam, OracleConfig(n=200, seed=6)
        )
        assert 0 < len(matches) < 200

    def test_bad_config_raises(self):
        with pytest.raises(ValueError):
            OracleConfig(n=0)
        with pytest.raises(ValueError):
            OracleConfig(outlier_fraction=1.5)
        with pytest.raises(ValueError):
            OracleConfig(pixel_noise_sigma=-1.0)


# ===========================================================================
# Match exchange format
# ===========================================================================


class TestMatchFileFormat:
    def make_matches(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        rows = np.array([
            [rng.uniform(0, 319.9), rng.uniform(0, 239.9),
             rng.uniform(0, 319.9), rng.uniform(0, 239.9), rng.uniform(0, 1)]
            for _ in range(n)
        ]).reshape(-1, 5)
        return Matches(query=rows[:, 0:2], ref=rows[:, 2:4], confidence=rows[:, 4])

    def test_roundtrip_exact(self, tmp_path):
        matches = self.make_matches(n=500)
        path = tmp_path / "m.matches"
        size = (320, 240)
        save_matches(path, matches, size, size)
        back = load_matches(path, size, size)
        assert len(back) == 500
        np.testing.assert_array_equal(matches.query, back.query)
        np.testing.assert_array_equal(matches.ref, back.ref)
        np.testing.assert_array_equal(matches.confidence, back.confidence)

    def test_save_load_save_is_byte_identical(self, tmp_path, cam):
        size = (cam.width, cam.height)
        for k, matches in enumerate([
            self.make_matches(n=200),
            oracle_match(
                Pose.identity(), Pose.identity(), flat_depth(cam), cam,
                OracleConfig(n=100, pixel_noise_sigma=0.7, outlier_fraction=0.3, seed=8),
            )[0],
        ]):
            first, second = tmp_path / f"a{k}.matches", tmp_path / f"b{k}.matches"
            save_matches(first, matches, size, size)
            save_matches(second, load_matches(first, size, size), size, size)
            assert first.read_bytes() == second.read_bytes()

    def test_header_contents(self, tmp_path):
        path = tmp_path / "m.matches"
        save_matches(path, self.make_matches(3), (320, 240), (320, 240))
        assert path.read_text().splitlines()[0] == "matches v1 320 240 320 240 3"

    def test_empty_match_list_roundtrips(self, tmp_path):
        path = tmp_path / "m.matches"
        save_matches(path, Matches.empty(), (320, 240), (320, 240))
        assert len(load_matches(path, (320, 240), (320, 240))) == 0

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "m.matches"
        path.write_text("matches v2 320 240 320 240 0\n")
        with pytest.raises(MatchFileError, match="header"):
            load_matches(path, (320, 240), (320, 240))

    def test_size_mismatch_raises(self, tmp_path):
        path = tmp_path / "m.matches"
        save_matches(path, Matches.empty(), (320, 240), (320, 240))
        with pytest.raises(MatchFileError, match="sizes"):
            load_matches(path, (640, 480), (320, 240))

    def test_count_mismatch_raises(self, tmp_path):
        path = tmp_path / "m.matches"
        path.write_text("matches v1 320 240 320 240 2\n1.0 1.0 1.0 1.0 0.5\n")
        with pytest.raises(MatchFileError, match="promises 2"):
            load_matches(path, (320, 240), (320, 240))

    def test_out_of_bounds_pixel_names_line(self, tmp_path):
        path = tmp_path / "m.matches"
        path.write_text(
            "matches v1 320 240 320 240 2\n"
            "1.0 1.0 1.0 1.0 0.5\n"
            "400.0 1.0 1.0 1.0 0.5\n"
        )
        with pytest.raises(MatchFileError, match="line 3"):
            load_matches(path, (320, 240), (320, 240))

    def test_bad_confidence_raises(self, tmp_path):
        path = tmp_path / "m.matches"
        path.write_text("matches v1 320 240 320 240 1\n1.0 1.0 1.0 1.0 1.5\n")
        with pytest.raises(MatchFileError, match="confidence"):
            load_matches(path, (320, 240), (320, 240))

    def test_non_finite_value_raises(self, tmp_path):
        path = tmp_path / "m.matches"
        path.write_text("matches v1 320 240 320 240 1\nnan 1.0 1.0 1.0 0.5\n")
        with pytest.raises(MatchFileError, match="finite"):
            load_matches(path, (320, 240), (320, 240))
