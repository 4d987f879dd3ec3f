"""Tests for depth lifting and the iterative render-match-solve loop."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatreloc import (
    ExternalMatcher,
    Matches,
    OracleConfig,
    OracleMatcher,
    Pose,
    ReferenceMatcher,
    ReferenceView,
    RelocalizeConfig,
    lift_to_3d,
    load_matches,
    match_stats,
    oracle_match,
    pose_delta,
    relocalize,
    render,
    save_matches,
    recording,
    save_result,
)
from splatreloc.geometry import quat_from_axis_angle, quat_multiply, quat_to_matrix

TRACE_KEYS = {
    "iteration", "pose", "match_count", "mean_confidence",
    "uniformity", "trans_delta", "rot_delta",
    "inlier_count", "mean_reprojection_error",
}


def flat_reference(cam, depth_value: float = 5.0, pose: Pose | None = None) -> ReferenceView:
    """Reference with a constant-depth plane, for analytic lifting checks."""
    return ReferenceView(
        pose=pose or Pose.identity(),
        rgb=np.zeros((cam.height, cam.width, 3)),
        depth=np.full((cam.height, cam.width), depth_value),
    )


def matches_at(*pixels: tuple[float, float]) -> Matches:
    """Matches whose query and reference pixels coincide, full confidence."""
    return Matches(query=pixels, ref=pixels, confidence=np.ones(len(pixels)))


class TestLiftTo3d:
    def test_principal_point_identity_pose(self, cam):
        """Principal-point match at depth 5 with identity pose lifts to (0, 0, 5)."""
        reference = flat_reference(cam, depth_value=5.0)
        corrs = lift_to_3d(matches_at((cam.cx, cam.cy)), reference, cam)
        assert len(corrs) == 1
        assert_allclose(corrs.points[0], [0.0, 0.0, 5.0], atol=1e-12)
        assert_allclose(corrs.pixels[0], [cam.cx, cam.cy], atol=1e-12)

    def test_bilinear_on_linear_ramp(self, cam, rng):
        """A depth plane that is linear in u and v is sampled exactly.

        Expected world points are recomputed by hand from the pinhole
        back-projection and the reference's rotation matrix.
        """
        pose = Pose(
            quat_from_axis_angle(np.array([0.3, -0.5, 0.8]), 0.4),
            np.array([1.0, -2.0, 3.0]),
        )
        vv, uu = np.mgrid[0 : cam.height, 0 : cam.width]
        reference = ReferenceView(
            pose=pose, rgb=np.zeros((cam.height, cam.width, 3)), depth=2.0 + 0.01 * uu + 0.02 * vv
        )
        R = quat_to_matrix(pose.rotation)
        for _ in range(20):
            u = float(rng.uniform(1, cam.width - 2))
            v = float(rng.uniform(1, cam.height - 2))
            (point,) = lift_to_3d(matches_at((u, v)), reference, cam).points
            d = 2.0 + 0.01 * u + 0.02 * v
            p_cam = np.array([(u - cam.cx) * d / cam.fx, (v - cam.cy) * d / cam.fy, d])
            assert_allclose(point, R @ p_cam + pose.translation, atol=1e-9)

    def test_sky_neighbor_drops_match(self, cam):
        """A zero-depth pixel in the 2x2 sample window invalidates the match."""
        reference = flat_reference(cam)
        reference.depth[8, 12] = 0.0
        kept = lift_to_3d(matches_at((11.5, 7.5), (20.5, 20.5)), reference, cam)
        assert len(kept) == 1
        assert_allclose(kept.pixels[0], [20.5, 20.5])

    def test_border_pixels_dropped(self, cam):
        """Sample windows that leave the image are rejected."""
        reference = flat_reference(cam)
        matches = matches_at(
            (cam.width - 1, 10.0),
            (-0.5, 10.0),
            (10.0, cam.height - 1),
            (10.0, 10.0),
        )
        kept = lift_to_3d(matches, reference, cam)
        assert len(kept) == 1
        assert_allclose(kept.pixels[0], [10.0, 10.0])

    def test_empty_input(self, cam):
        assert len(lift_to_3d(Matches.empty(), flat_reference(cam), cam)) == 0


@pytest.fixture(scope="module")
def offset_result(small_scene, anchor_db, cam):
    """One relocalization of a query 0.3 m / 3 deg away from anchor 2."""
    rec = anchor_db.records[2]
    rotation = quat_multiply(
        quat_from_axis_angle(np.array([0.2, 1.0, -0.4]), np.deg2rad(3.0)),
        rec.pose.rotation,
    )
    gt = Pose(rotation, rec.pose.translation + np.array([0.3, 0.0, 0.0]))
    query = render(small_scene, gt, cam).rgb
    matcher = OracleMatcher(gt, cam, OracleConfig(pixel_noise_sigma=0.5, seed=11))
    result = relocalize(query, small_scene, anchor_db, matcher)
    return gt, query, matcher, result


class TestRelocalizeLoop:
    def test_fixed_point_at_anchor_pose(self, small_scene, anchor_db, cam):
        """A query taken exactly at an anchor converges there in one iteration."""
        rec = anchor_db.records[2]
        matcher = OracleMatcher(rec.pose, cam, OracleConfig())
        result = relocalize(rec.rgb / 255.0, small_scene, anchor_db, matcher)
        assert result.status == "converged"
        assert result.anchor_id == 2
        assert len(result.traces) == 1
        dt, dr = pose_delta(result.final_pose, rec.pose)
        assert dt < 1e-6 and dr < 1e-6

    def test_first_iteration_reuses_anchor_render(self, small_scene, anchor_db, cam, offset_result):
        """Iteration 1 reuses the anchor's render; every later iteration renders once."""
        gt, query, _, expected = offset_result
        matcher = OracleMatcher(gt, cam, OracleConfig(pixel_noise_sigma=0.5, seed=11))
        with recording() as spans:
            result = relocalize(query, small_scene, anchor_db, matcher)
        assert result.to_dict() == expected.to_dict()
        assert len(result.traces) > 1
        renders = [span for span in spans if span[0] == "renderer.render"]
        assert len(renders) == len(result.traces) - 1
        assert all(end >= start for _, start, end in renders)

    def test_matcher_sees_float_references(self, small_scene, anchor_db, cam, offset_result):
        """Iteration 1 matches against the retrieved anchor as floats, later ones a render."""
        gt, query, matcher, expected = offset_result
        seen = []

        class Spy:
            def match_pair(self, query_image, reference, iteration):
                seen.append(reference)
                return matcher.match_pair(query_image, reference, iteration)

        result = relocalize(query, small_scene, anchor_db, Spy())
        assert result.to_dict() == expected.to_dict()
        assert len(seen) == len(result.traces) > 1
        anchor = ReferenceView.of_anchor(anchor_db.records[result.anchor_id])
        for reference, want in zip(seen, [anchor] + [None] * (len(seen) - 1)):
            assert reference.rgb.dtype == reference.depth.dtype == np.float64
            if want is None:
                want = render(small_scene, reference.pose, cam)
            assert reference.rgb.tobytes() == want.rgb.tobytes()
            assert reference.depth.tobytes() == want.depth.tobytes()
        assert seen[0].pose is anchor_db.records[result.anchor_id].pose
        for reference, previous in zip(seen[1:], result.traces):
            assert reference.pose is previous.pose

    def test_converges_from_offset(self, offset_result):
        """0.3 m / 3 deg initial error converges to centimeter accuracy."""
        gt, _, _, result = offset_result
        assert result.status == "converged"
        assert result.anchor_id == 2
        assert len(result.traces) <= 10
        dt, dr = pose_delta(result.final_pose, gt)
        assert dt < 0.02
        assert dr < np.deg2rad(0.2)

    def test_final_update_below_thresholds(self, offset_result):
        """Converged means the last pose update is within both epsilons."""
        _, _, _, result = offset_result
        last = result.traces[-1]
        assert last.trans_delta <= 0.01
        assert last.rot_delta <= 0.01

    def test_iteration_budget_exhausted(self, small_scene, anchor_db, offset_result):
        """With max_iterations=1 the same query stops at max_iterations."""
        _, query, matcher, _ = offset_result
        result = relocalize(
            query, small_scene, anchor_db, matcher, RelocalizeConfig(max_iterations=1)
        )
        assert result.status == "max_iterations"
        assert len(result.traces) == 1

    def test_featureless_query_fails(self, small_scene, anchor_db):
        """A constant image yields no features: failed with a match-count message."""
        flat = np.full((240, 320, 3), 0.5)
        result = relocalize(flat, small_scene, anchor_db, ReferenceMatcher())
        assert result.status == "failed"
        assert "min_matches" in result.message
        assert len(result.traces) == 1
        assert result.traces[0].match_count < 12

    def test_noisy_queries_converge_near_truth(self, small_scene, anchor_db, cam):
        """Across anchors and random offsets the loop lands within 2-3 cm."""
        errors = []
        for seed in range(5):
            rec = anchor_db.records[seed % len(anchor_db.records)]
            rng = np.random.default_rng(100 + seed)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            rotation = quat_multiply(
                quat_from_axis_angle(rng.standard_normal(3), np.deg2rad(4.0)),
                rec.pose.rotation,
            )
            gt = Pose(rotation, rec.pose.translation + 0.3 * direction)
            query = render(small_scene, gt, cam).rgb
            matcher = OracleMatcher(gt, cam, OracleConfig(pixel_noise_sigma=0.5, seed=seed))
            result = relocalize(query, small_scene, anchor_db, matcher)
            assert result.status == "converged"
            dt, _ = pose_delta(result.final_pose, gt)
            assert dt < 0.03
            errors.append(dt)
        assert np.median(errors) < 0.02

    def test_deterministic(self, small_scene, anchor_db, offset_result):
        """The same query and matcher settings reproduce the identical result."""
        gt, query, _, result = offset_result
        matcher = OracleMatcher(gt, anchor_db.camera, OracleConfig(pixel_noise_sigma=0.5, seed=11))
        again = relocalize(query, small_scene, anchor_db, matcher)
        assert again.status == result.status
        assert len(again.traces) == len(result.traces)
        assert np.array_equal(again.final_pose.as_array(), result.final_pose.as_array())

    def test_levels_query_raises(self, small_scene, anchor_db, cam):
        """A record's 8-bit levels are not a query; its levels / 255 are."""
        rec = anchor_db.records[2]
        matcher = OracleMatcher(rec.pose, cam, OracleConfig())
        with pytest.raises(ValueError, match=r"floating point in \[0, 1\], got uint8"):
            relocalize(rec.rgb, small_scene, anchor_db, matcher)

    def test_camera_mismatch_raises(self, small_scene, anchor_db):
        """Query dimensions must match the database camera."""
        wrong = np.full((120, 160, 3), 0.5)
        with pytest.raises(ValueError, match="camera"):
            relocalize(wrong, small_scene, anchor_db, ReferenceMatcher())


class TestRelocalizeConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iterations", 0), ("max_iterations", -3), ("trans_eps", -1.0),
            ("rot_eps", -0.01), ("trans_eps", float("nan")), ("rot_eps", float("nan")),
        ],
    )
    def test_no_op_settings_raise(self, field, value):
        """A loop that could not run, or never converge, is refused by name."""
        with pytest.raises(ValueError, match=field):
            RelocalizeConfig(**{field: value})

    def test_smallest_settings_allowed(self):
        config = RelocalizeConfig(max_iterations=1, trans_eps=0.0, rot_eps=0.0)
        assert (config.max_iterations, config.trans_eps, config.rot_eps) == (1, 0.0, 0.0)


def _too_few(matches, reference, cam, tmp_path):
    return matches[:5]


def _border_bound(matches, reference, cam, tmp_path):
    """Four interior matches plus sixteen whose depth window leaves the image."""
    u = np.linspace(10.0, cam.width - 10.0, 4)
    edges = [
        (cam.width - 1.0, 50.0), (cam.width - 0.5, 120.0), (-0.5, 80.0), (100.0, cam.height - 1.0)
    ]
    ref = np.vstack([np.column_stack([u, np.full(4, 60.0)]), np.repeat(edges, 4, axis=0)])
    query = np.column_stack([np.linspace(5.0, 300.0, 20), np.linspace(5.0, 230.0, 20)])
    return Matches(query=query, ref=ref, confidence=np.linspace(0.2, 0.9, 20))


def _all_outliers(matches, reference, cam, tmp_path):
    rng = np.random.default_rng(5)
    outliers, _ = oracle_match(
        reference.pose, reference.pose, reference.depth, cam,
        OracleConfig(outlier_fraction=1.0), rng,
    )
    return outliers


def _corrupt_file(matches, reference, cam, tmp_path):
    (tmp_path / "bad_iter1.matches").write_text("not a match file\n")
    size = (cam.width, cam.height)
    return load_matches(tmp_path / "bad_iter1.matches", size, size)


class TestFailedIteration:
    """Every failed exit keeps the previous estimate and traces the iteration's matches."""

    @pytest.mark.parametrize("fail_at", [1, 2])
    @pytest.mark.parametrize(
        "bad, reason",
        [
            (_too_few, "5 matches < min_matches 12"),
            (_border_bound, "4 lifted correspondences < min_matches 12"),
            (
                _all_outliers,
                "pose solve failed: no hypothesis reached 6 inliers at 3.0 px over 256 iterations",
            ),
            (_corrupt_file, "{tmp}/bad_iter1.matches: bad header 'not a match file'"),
        ],
        ids=["too_few_matches", "too_few_lifted", "no_consensus", "match_file"],
    )
    def test_failed_exit(
        self, small_scene, anchor_db, cam, offset_result, tmp_path, fail_at, bad, reason
    ):
        _, query, good, _ = offset_result

        class FailAt:
            """The oracle's matches, replaced by ``bad``'s at iteration ``fail_at``."""

            bad_matches = Matches.empty()  # what the trace counts when ``bad`` raises

            def match_pair(self, query_image, reference, iteration):
                matches = good.match_pair(query_image, reference, iteration)
                if iteration == fail_at:
                    matches = self.bad_matches = bad(matches, reference, cam, tmp_path)
                return matches

        matcher = FailAt()
        result = relocalize(query, small_scene, anchor_db, matcher)
        assert result.message == f"iteration {fail_at}: " + reason.format(tmp=tmp_path)
        assert result.status == "failed"
        assert len(result.traces) == fail_at
        anchor = anchor_db.records[result.anchor_id]
        previous = anchor.pose if fail_at == 1 else result.traces[0].pose
        assert result.final_pose is previous
        failed = result.traces[-1]
        stats = match_stats(matcher.bad_matches, cam)
        assert failed.iteration == fail_at
        assert failed.pose is previous
        assert (failed.match_count, failed.mean_confidence, failed.uniformity) == (
            stats.count, stats.mean_confidence, stats.uniformity,
        )
        assert failed.trans_delta == failed.rot_delta == 0.0
        assert failed.inlier_count is None and failed.mean_reprojection_error is None
        payload = result.to_dict()
        assert set(payload) == {
            "status", "anchor_id", "message", "final_pose", "iterations", "traces",
        }
        assert all(set(tr) == TRACE_KEYS for tr in payload["traces"])
        assert payload["traces"][-1]["inlier_count"] is None


class TestReferenceMatcher:
    """The query's features are detected once per query array, not per call."""

    @staticmethod
    def detect_calls(query_images, reference):
        matcher = ReferenceMatcher()
        with recording() as spans:
            results = [matcher.match_pair(image, reference, 1) for image in query_images]
        return sum(name == "features.detect_and_describe" for name, _, _ in spans), results

    def test_same_query_array_is_detected_once(self, anchor_db):
        """Two calls: one query detection and two reference detections."""
        query = anchor_db.records[2].rgb / 255.0
        reference = ReferenceView.of_anchor(anchor_db.records[1])
        calls, (first, second) = self.detect_calls([query, query], reference)
        assert calls == 3
        assert len(first) > 0
        for field in ("query", "ref", "confidence"):
            assert np.array_equal(getattr(first, field), getattr(second, field))

    def test_equal_copy_is_detected_again(self, anchor_db):
        """The cache keys on the array object, so an equal copy is a new query."""
        query = anchor_db.records[2].rgb / 255.0
        reference = ReferenceView.of_anchor(anchor_db.records[1])
        calls, _ = self.detect_calls([query, query.copy()], reference)
        assert calls == 4


class TestExternalMatcher:
    def test_consumes_match_files(self, small_scene, anchor_db, cam, tmp_path):
        """Matches written as <id>_iter1.matches drive the loop to convergence."""
        rec = anchor_db.records[1]
        rng = np.random.default_rng(3)
        depth = ReferenceView.of_anchor(rec).depth
        matches, _ = oracle_match(rec.pose, rec.pose, depth, cam, OracleConfig(), rng)
        size = (cam.width, cam.height)
        save_matches(tmp_path / "q7_iter1.matches", matches, size, size)
        matcher = ExternalMatcher(tmp_path, "q7", cam)
        result = relocalize(rec.rgb / 255.0, small_scene, anchor_db, matcher)
        assert result.status == "converged"
        assert len(result.traces) == 1
        dt, dr = pose_delta(result.final_pose, rec.pose)
        assert dt < 1e-6 and dr < 1e-6

    def test_missing_file_fails(self, small_scene, anchor_db, cam, tmp_path):
        """No match file for the iteration means a failed status, not a crash."""
        rec = anchor_db.records[1]
        matcher = ExternalMatcher(tmp_path, "absent", cam)
        result = relocalize(rec.rgb / 255.0, small_scene, anchor_db, matcher)
        assert result.status == "failed"
        assert result.message == "iteration 1: 0 matches < min_matches 12"

    def test_corrupt_file_fails_with_context(self, small_scene, anchor_db, cam, tmp_path):
        """A malformed match file surfaces as a failed status naming the iteration."""
        rec = anchor_db.records[1]
        (tmp_path / "bad_iter1.matches").write_text("not a match file\n")
        matcher = ExternalMatcher(tmp_path, "bad", cam)
        result = relocalize(rec.rgb / 255.0, small_scene, anchor_db, matcher)
        assert result.status == "failed"
        assert result.message == (
            f"iteration 1: {tmp_path}/bad_iter1.matches: bad header 'not a match file'"
        )


class TestResultSerialization:
    def test_to_dict_shape(self, offset_result):
        """The result dict exposes status, pose, and per-iteration diagnostics."""
        _, _, _, result = offset_result
        payload = result.to_dict()
        assert set(payload) == {
            "status", "anchor_id", "message", "final_pose", "iterations", "traces",
        }
        assert payload["status"] == "converged"
        assert payload["iterations"] == len(result.traces)
        assert len(payload["final_pose"]) == 7
        assert all(set(tr) == TRACE_KEYS for tr in payload["traces"])

    def test_save_result_is_deterministic(self, offset_result, tmp_path):
        """The result JSON excludes wall-clock data, so rewrites are identical."""
        _, _, _, result = offset_result
        save_result(tmp_path / "a.json", result, query_id="q0")
        save_result(tmp_path / "b.json", result, query_id="q0")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        payload = json.loads((tmp_path / "a.json").read_text())
        assert payload["query_id"] == "q0"
        assert "render_ms" not in json.dumps(payload)
