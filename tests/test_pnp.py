"""Pose solvers: control points, rigid alignment, minimal solver, nonlinear
refinement, and the robust estimation wrapper."""

import numpy as np
import pytest

from splatreloc import (
    CameraIntrinsics,
    CheiralityViolation,
    Correspondences,
    DegenerateGeometry,
    InsufficientMatches,
    NoConsensus,
    Pose,
    epnp,
    pose_delta,
    refine_ba,
    solve_pnp,
    umeyama_align,
)
from splatreloc.geometry import quat_from_rotvec
from splatreloc import pnp
from splatreloc.pnp import (
    HUBER_DELTA_PX,
    _control_points,
    _epnp_batch,
    apply_delta,
    reprojection_residuals,
)

from conftest import random_unit_quaternion

CAM = CameraIntrinsics(fx=250.0, fy=250.0, cx=160.0, cy=120.0, width=320, height=240)


def random_pose(rng) -> Pose:
    return Pose(random_unit_quaternion(rng), rng.uniform(-5.0, 5.0, 3))


def make_case(seed, n=20, noise=0.0, outliers=0, cam=CAM, z_range=(3.0, 8.0)):
    """A pose plus n pixel/world correspondences consistent with it."""
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    depths = rng.uniform(*z_range, n)
    pixels = np.column_stack(
        [rng.uniform(10, cam.width - 10, n), rng.uniform(10, cam.height - 10, n)]
    )
    points = pose.apply(cam.backproject(pixels, depths))
    observed = pixels + (rng.normal(0.0, noise, (n, 2)) if noise > 0 else 0.0)
    if outliers:
        bad = rng.choice(n, outliers, replace=False)
        observed[bad, 0] = rng.uniform(0, cam.width, outliers)
        observed[bad, 1] = rng.uniform(0, cam.height, outliers)
    return pose, Correspondences(observed, points)


# ===========================================================================
# Correspondence record
# ===========================================================================


class TestCorrespondencesRecord:
    def test_wrong_shapes_raise(self):
        """Shapes are checked, never reshaped: (3, 4) pixels are not 6 pairs."""
        with pytest.raises(ValueError, match=r"pixels must have shape \('n', 2\), got \(3, 4\)"):
            Correspondences(np.zeros((3, 4)), np.zeros((6, 3)))
        with pytest.raises(ValueError, match=r"points must have shape \('n', 3\), got \(6,\)"):
            Correspondences(np.zeros((2, 2)), np.zeros(6))
        with pytest.raises(ValueError, match="pixels must have shape"):
            Correspondences(np.zeros(2), np.zeros((1, 3)))

    def test_mismatched_rows_raise(self):
        with pytest.raises(ValueError, match="row counts differ: 3 pixels, 2 points"):
            Correspondences(np.zeros((3, 2)), np.zeros((2, 3)))

    def test_getitem(self):
        _, corrs = make_case(3, n=6)
        mask = np.array([True, False, True, True, False, False])
        for index in (mask, slice(1, 3), np.array([5, 0])):
            picked = corrs[index]
            np.testing.assert_array_equal(picked.pixels, corrs.pixels[index])
            np.testing.assert_array_equal(picked.points, corrs.points[index])
        assert len(corrs[mask]) == 3
        empty = corrs[np.zeros(6, dtype=bool)]
        assert len(empty) == 0
        assert empty.pixels.shape == (0, 2) and empty.points.shape == (0, 3)


# ===========================================================================
# Control points
# ===========================================================================


class TestControlPoints:
    """The batched helper on one-cloud stacks: (1, n, 3) in, stacked results out."""

    def test_first_control_point_is_centroid(self, rng):
        points = rng.normal(size=(15, 3))
        control, _, _ = _control_points(points[None])
        np.testing.assert_allclose(control[0, 0], points.mean(axis=0), atol=1e-12)

    def test_barycentric_weights_sum_to_one(self, rng):
        points = rng.normal(size=(12, 3))
        _, weights, _ = _control_points(points[None])
        np.testing.assert_allclose(weights[0].sum(axis=1), 1.0, atol=1e-9)

    def test_weights_reconstruct_points(self, rng):
        for _ in range(10):
            points = rng.normal(size=(10, 3)) * rng.uniform(0.5, 3.0)
            control, weights, _ = _control_points(points[None])
            reconstructed = weights[0] @ control[0]
            np.testing.assert_allclose(reconstructed, points, atol=1e-9)

    def test_unit_tetrahedron_reconstruction(self):
        points = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        control, weights, _ = _control_points(points[None])
        np.testing.assert_allclose(weights[0] @ control[0], points, atol=1e-12)

    def test_coplanar_points_flagged(self, rng):
        points = rng.normal(size=(10, 3))
        points[:, 2] = 2.0  # flatten onto a plane
        _, weights, coplanar = _control_points(points[None])
        assert coplanar.tolist() == [True]
        assert np.all(np.isfinite(weights))


# ===========================================================================
# Rigid alignment
# ===========================================================================


class TestUmeyamaAlign:
    def test_recovers_random_rigid_transforms(self, rng):
        for _ in range(20):
            true = random_pose(rng)
            a = rng.normal(size=(12, 3)) * rng.uniform(0.5, 4.0)
            b = true.apply(a)
            est = umeyama_align(a, b)
            trans, rot = pose_delta(est, true)
            assert trans < 1e-9
            assert rot < 1e-9
            np.testing.assert_allclose(est.apply(a), b, atol=1e-9)

    def test_translation_only(self):
        a = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        b = a + np.array([2.0, -1.0, 3.0])
        est = umeyama_align(a, b)
        np.testing.assert_allclose(est.translation, [2.0, -1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(est.rotation_matrix(), np.eye(3), atol=1e-12)

    def test_reflection_produces_proper_rotation(self, rng):
        """Mirrored targets must not yield an improper (det -1) solution."""
        a = rng.normal(size=(10, 3))
        b = a * np.array([1.0, 1.0, -1.0])  # reflection, not a rotation
        est = umeyama_align(a, b)
        assert np.linalg.det(est.rotation_matrix()) == pytest.approx(1.0, abs=1e-9)

    def test_least_squares_optimality(self, rng):
        """No random rigid transform beats the closed-form solution."""
        a = rng.normal(size=(15, 3))
        noise_target = random_pose(rng).apply(a) + rng.normal(0, 0.05, (15, 3))
        est = umeyama_align(a, noise_target)
        best = np.sum((est.apply(a) - noise_target) ** 2)
        for _ in range(200):
            candidate = random_pose(rng)
            assert best <= np.sum((candidate.apply(a) - noise_target) ** 2) + 1e-12

    def test_collinear_points_raise(self):
        a = np.outer(np.linspace(0, 1, 8), np.array([1.0, 2.0, 3.0]))
        b = a + 1.0
        with pytest.raises(DegenerateGeometry):
            umeyama_align(a, b)

    def test_mismatched_shapes_raise(self, rng):
        with pytest.raises(ValueError):
            umeyama_align(rng.normal(size=(5, 3)), rng.normal(size=(6, 3)))

    @pytest.mark.parametrize("shape", [(5, 2), (2, 3), (15,), (5, 3, 1)])
    def test_not_three_3d_points_raises(self, rng, shape):
        points = rng.normal(size=shape)
        with pytest.raises(ValueError, match=r"^need \(n, 3\) arrays with n >= 3$"):
            umeyama_align(points, points)


# ===========================================================================
# Minimal solver
# ===========================================================================


class TestEpnp:
    def test_exact_recovery(self):
        for seed in range(20):
            pose, corrs = make_case(seed, n=20)
            report = epnp(corrs, CAM)
            trans, rot = pose_delta(report.pose, pose)
            assert trans < 1e-6
            assert rot < 1e-6

    def test_minimum_six_points(self):
        pose, corrs = make_case(101, n=6)
        report = epnp(corrs, CAM)
        trans, rot = pose_delta(report.pose, pose)
        assert trans < 1e-6
        assert rot < 1e-6

    def test_five_points_raise(self):
        _, corrs = make_case(0, n=20)
        with pytest.raises(InsufficientMatches):
            epnp(corrs[:5], CAM)

    def test_coplanar_world_points_raise(self):
        rng = np.random.default_rng(7)
        pose = random_pose(rng)
        pixels = np.column_stack([rng.uniform(20, 300, 12), rng.uniform(20, 220, 12)])
        local = CAM.backproject(pixels, np.full(12, 5.0))  # all at depth 5: coplanar
        points = pose.apply(local)
        with pytest.raises(DegenerateGeometry):
            epnp(Correspondences(pixels, points), CAM)

    def test_report_fields(self):
        _, corrs = make_case(3, n=15)
        report = epnp(corrs, CAM)
        assert report.inlier_count == 15
        assert report.converged
        assert report.mean_reprojection_error < 1e-6


class TestEpnpBatch:
    def test_batch_matches_single_calls(self):
        """One batch mixing good, coplanar, all-behind and camera-straddling
        samples does not raise, marks exactly the samples a single call
        rejects, and gives every other sample the single call's pose."""
        rng = np.random.default_rng(17)
        pose = random_pose(rng)
        pixels, points = [], []
        for k in range(24):
            px = np.column_stack([rng.uniform(10, 310, 6), rng.uniform(10, 230, 6)])
            front, behind = rng.uniform(3.0, 8.0, 6), -rng.uniform(3.0, 8.0, 6)
            kind = k % 4
            if kind == 0:
                pts = pose.apply(CAM.backproject(px, front))
            elif kind == 1:
                # Exactly coplanar: the barycentric system is singular, which
                # would fail a stacked np.linalg.solve for the whole batch.
                pts = rng.normal(size=(6, 3))
                pts[:, 2] = 2.0
            elif kind == 2:
                pts = pose.apply(CAM.backproject(px, behind))
            else:  # straddling the camera plane
                pts = pose.apply(CAM.backproject(px, np.r_[front[:3], behind[3:]]))
            pixels.append(px)
            points.append(pts)
        pixels, points = np.array(pixels), np.array(points)

        hyp = _epnp_batch(pixels, points, CAM)
        rejected = set()
        for k in range(len(pixels)):
            try:
                single = epnp(Correspondences(pixels[k], points[k]), CAM)
            except DegenerateGeometry:
                rejected.add("coplanar")
                assert hyp.coplanar[k]
            except CheiralityViolation:
                rejected.add("behind")
                assert not hyp.coplanar[k] and not np.isfinite(hyp.error[k])
            else:
                assert hyp.solved[k]
                np.testing.assert_allclose(
                    hyp.pose(k).as_array(), single.pose.as_array(), rtol=0, atol=1e-12
                )
        assert rejected == {"coplanar", "behind"}


# ===========================================================================
# Pose perturbation and residuals
# ===========================================================================


class TestApplyDelta:
    def test_zero_delta_is_identity(self, rng):
        pose = random_pose(rng)
        out = apply_delta(pose, np.zeros(6))
        np.testing.assert_allclose(out.matrix(), pose.matrix(), atol=1e-12)

    def test_pure_translation(self, rng):
        pose = random_pose(rng)
        out = apply_delta(pose, np.array([0, 0, 0, 0.1, -0.2, 0.3]))
        np.testing.assert_allclose(
            out.translation, pose.translation + [0.1, -0.2, 0.3], atol=1e-12
        )
        np.testing.assert_allclose(out.rotation, pose.rotation, atol=1e-12)

    def test_rotation_magnitude(self, rng):
        pose = Pose(random_unit_quaternion(rng), np.zeros(3))
        omega = np.array([0.02, -0.01, 0.015])
        out = apply_delta(pose, np.concatenate([omega, np.zeros(3)]))
        _, rot = pose_delta(out, pose)
        assert rot == pytest.approx(np.linalg.norm(omega), abs=1e-12)

    def test_left_multiplicative_rotation(self, rng):
        """The rotational part acts on the left: R' = exp(w) R."""
        pose = random_pose(rng)
        omega = np.array([0.05, 0.02, -0.03])
        out = apply_delta(pose, np.concatenate([omega, np.zeros(3)]))
        from splatreloc.geometry import quat_to_matrix

        expected = quat_to_matrix(quat_from_rotvec(omega)) @ pose.rotation_matrix()
        np.testing.assert_allclose(out.rotation_matrix(), expected, atol=1e-12)


class TestReprojectionResiduals:
    def test_no_correspondences_raise(self):
        with pytest.raises(ValueError, match="^no correspondences$"):
            reprojection_residuals(Correspondences.empty(), CAM, Pose.identity())

    def test_zero_residual_at_truth(self):
        pose, corrs = make_case(5, n=10)
        residuals, _ = reprojection_residuals(corrs, CAM, pose)
        np.testing.assert_allclose(residuals, 0.0, atol=1e-9)

    def test_residual_values(self):
        """Residual is (observed - projected) per pixel coordinate, matching
        the sign the jacobian is built for."""
        pose, corrs = make_case(6, n=8)
        shifted = Correspondences(corrs.pixels + np.array([1.0, -2.0]), corrs.points)
        residuals, _ = reprojection_residuals(shifted, CAM, pose)
        np.testing.assert_allclose(residuals.reshape(-1, 2)[:, 0], 1.0, atol=1e-9)
        np.testing.assert_allclose(residuals.reshape(-1, 2)[:, 1], -2.0, atol=1e-9)

    def test_jacobian_matches_central_differences(self):
        h = 1e-6
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pose, corrs = make_case(seed, n=8)
            # evaluate away from the optimum so the jacobian is generic
            probe = apply_delta(pose, rng.normal(0, 0.01, 6))
            _, J = reprojection_residuals(corrs, CAM, probe)
            fd = np.empty_like(J)
            for k in range(6):
                delta = np.zeros(6)
                delta[k] = h
                r_plus, _ = reprojection_residuals(corrs, CAM, apply_delta(probe, delta))
                r_minus, _ = reprojection_residuals(corrs, CAM, apply_delta(probe, -delta))
                fd[:, k] = (r_plus - r_minus) / (2 * h)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(J - fd).max() / scale < 1e-5


# ===========================================================================
# Nonlinear refinement
# ===========================================================================


class TestRefineBa:
    def test_fixed_point_at_truth(self):
        pose, corrs = make_case(10, n=20)
        report = refine_ba(corrs, CAM, pose)
        trans, rot = pose_delta(report.pose, pose)
        assert trans < 1e-10
        assert rot < 1e-10
        assert report.converged
        assert report.mean_reprojection_error < 1e-9

    def test_converges_from_perturbed_init(self):
        for seed in range(5):
            pose, corrs = make_case(seed, n=25)
            rng = np.random.default_rng(seed + 1000)
            init = apply_delta(pose, rng.normal(0, 0.05, 6))
            report = refine_ba(corrs, CAM, init)
            trans, rot = pose_delta(report.pose, pose)
            assert trans < 1e-6
            assert rot < 1e-6

    def test_never_worse_than_init(self):
        pose, corrs = make_case(20, n=25, noise=1.0)
        init = apply_delta(pose, np.array([0.02, -0.01, 0.01, 0.05, 0.05, -0.05]))

        def huber_cost(p):
            r, _ = reprojection_residuals(corrs, CAM, p)
            errs = np.linalg.norm(r.reshape(-1, 2), axis=1)
            delta = HUBER_DELTA_PX
            linear = delta * (errs - 0.5 * delta)
            return float(np.sum(np.where(errs <= delta, 0.5 * errs**2, linear)))

        report = refine_ba(corrs, CAM, init)
        assert huber_cost(report.pose) <= huber_cost(init) + 1e-9

    def test_huber_shrugs_off_gross_outliers(self):
        """Robust refinement stays within 1 cm with 20 % of the pixels 20-60 px off."""
        rng = np.random.default_rng(8)
        pose = random_pose(rng)
        n = 60
        depths = rng.uniform(3, 8, n)
        pixels = np.column_stack([rng.uniform(10, 310, n), rng.uniform(10, 230, n)])
        points = pose.apply(CAM.backproject(pixels, depths))
        observed = pixels.copy()
        bad = rng.choice(n, 12, replace=False)
        observed[bad] += rng.uniform(20, 60, (12, 2)) * rng.choice([-1, 1], (12, 2))
        corrs = Correspondences(observed, points)
        init = Pose(pose.rotation, pose.translation + np.array([0.05, 0.0, 0.0]))

        robust = refine_ba(corrs, CAM, init)
        robust_err = pose_delta(robust.pose, pose)[0]
        assert robust_err < 0.01

    def test_points_behind_camera_are_dropped(self):
        pose, corrs = make_case(30, n=20)
        # fabricate impossible points behind the camera; they must be ignored
        behind_pixel = np.array([[50.0, 50.0]])
        behind_point = pose.apply(np.array([[0.0, 0.0, -4.0]]))
        corrs = Correspondences(
            np.vstack([corrs.pixels, behind_pixel]), np.vstack([corrs.points, behind_point])
        )
        report = refine_ba(corrs, CAM, pose)
        trans, _ = pose_delta(report.pose, pose)
        assert trans < 1e-9

    def test_all_points_behind_camera_raise(self):
        pose, corrs = make_case(31, n=10)
        flipped = Pose(pose.rotation, pose.translation)
        offsets = 0.01 * np.arange(len(corrs))[:, None]
        behind = Correspondences(
            corrs.pixels, flipped.apply(np.array([0.0, 0.0, -5.0]) + offsets)
        )
        with pytest.raises(CheiralityViolation):
            refine_ba(behind, CAM, pose)

    def test_too_few_correspondences_raise(self):
        _, corrs = make_case(32, n=20)
        with pytest.raises(InsufficientMatches):
            refine_ba(corrs[:5], CAM, Pose.identity())

    def test_iteration_cap_respected(self, monkeypatch):
        monkeypatch.setattr(pnp, "LM_MAX_ITERS", 3)
        pose, corrs = make_case(33, n=20, noise=2.0)
        init = apply_delta(pose, np.array([0.05, 0.05, 0.05, 0.2, 0.2, 0.2]))
        report = refine_ba(corrs, CAM, init)
        assert report.iterations <= 3


# ===========================================================================
# Robust solve
# ===========================================================================


class TestSolvePnp:
    def test_exact_data(self):
        pose, corrs = make_case(40, n=50)
        report = solve_pnp(corrs, CAM)
        trans, rot = pose_delta(report.pose, pose)
        assert trans < 1e-6
        assert rot < 1e-6
        assert report.inlier_count == 50

    @pytest.mark.parametrize("seed", [3, 11])
    def test_forty_percent_outliers(self, seed):
        """100 correspondences, 40 gross outliers, 0.2 px inlier noise."""
        pose, corrs = make_case(seed, n=100, noise=0.2, outliers=40)
        report = solve_pnp(corrs, CAM, seed=seed)
        assert 58 <= report.inlier_count <= 62
        trans, _ = pose_delta(report.pose, pose)
        assert trans < 0.005

    def test_order_invariance(self):
        pose, corrs = make_case(50, n=80, noise=0.3, outliers=20)
        report_a = solve_pnp(corrs, CAM, seed=9)
        perm = np.arange(len(corrs))
        np.random.default_rng(123).shuffle(perm)
        report_b = solve_pnp(corrs[perm], CAM, seed=9)
        trans, rot = pose_delta(report_a.pose, report_b.pose)
        assert trans < 1e-9
        assert rot < 1e-9
        assert report_a.inlier_count == report_b.inlier_count

    def test_deterministic_per_seed(self):
        _, corrs = make_case(51, n=60, noise=0.3, outliers=15)
        a = solve_pnp(corrs, CAM, seed=4)
        b = solve_pnp(corrs, CAM, seed=4)
        np.testing.assert_array_equal(a.pose.as_array(), b.pose.as_array())
        assert a.inlier_count == b.inlier_count

    def test_too_few_correspondences_raise(self):
        _, corrs = make_case(52, n=20)
        with pytest.raises(InsufficientMatches):
            solve_pnp(corrs[:5], CAM)

    def test_garbage_raises_no_consensus(self):
        rng = np.random.default_rng(0)
        draws = [
            (np.array([rng.uniform(0, 320), rng.uniform(0, 240)]), rng.uniform(-5, 5, 3))
            for _ in range(30)
        ]
        corrs = Correspondences(
            np.array([px for px, _ in draws]), np.array([pt for _, pt in draws])
        )
        with pytest.raises(NoConsensus):
            solve_pnp(corrs, CAM, seed=0)

    def test_report_mean_error_consistent(self):
        pose, corrs = make_case(53, n=60, noise=0.25, outliers=10)
        report = solve_pnp(corrs, CAM, seed=2)
        assert 0.0 <= report.mean_reprojection_error < 3.0
