"""Quaternion/pose algebra, camera model, and trajectory I/O.

scipy.spatial.transform.Rotation serves as the independent reference
implementation for all rotation arithmetic (note scipy stores quaternions
as (x, y, z, w) while this package uses (w, x, y, z)).
"""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from splatreloc import (
    CameraIntrinsics,
    Pose,
    PoseFileError,
    Trajectory,
    load_trajectory,
    pose_delta,
    save_trajectory,
)
from splatreloc.geometry import (
    look_at,
    matrix_to_quat,
    quat_conjugate,
    quat_from_axis_angle,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_rotation_angle,
    quat_to_matrix,
)

from conftest import random_unit_quaternion


def to_scipy(q_wxyz: np.ndarray) -> Rotation:
    w, x, y, z = q_wxyz
    return Rotation.from_quat([x, y, z, w])


def random_quats(n: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [random_unit_quaternion(rng) for _ in range(n)]


# ===========================================================================
# Quaternion primitives
# ===========================================================================


class TestQuatNormalize:
    def test_unit_result(self):
        q = quat_normalize(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)

    def test_canonical_sign(self):
        """The scalar component comes out non-negative."""
        q = quat_normalize(np.array([-1.0, 2.0, 3.0, 4.0]))
        assert q[0] >= 0.0

    def test_negated_input_same_output(self):
        q = np.array([0.5, -0.5, 0.5, -0.5])
        np.testing.assert_allclose(quat_normalize(q), quat_normalize(-q))

    def test_near_zero_raises(self):
        with pytest.raises(ValueError):
            quat_normalize(np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError):
            quat_normalize(np.array([bad, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pose_with_non_finite_rotation_raises(self, bad):
        with pytest.raises(ValueError):
            Pose(np.array([bad, 0.0, 0.0, 0.0]), np.zeros(3))


class TestQuatAlgebra:
    def test_multiply_matches_reference(self):
        for qa, qb in zip(random_quats(20, seed=1), random_quats(20, seed=2)):
            ours = quat_to_matrix(quat_multiply(qa, qb))
            theirs = (to_scipy(qa) * to_scipy(qb)).as_matrix()
            np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_conjugate_inverts(self):
        for q in random_quats(10):
            prod = quat_multiply(q, quat_conjugate(q))
            np.testing.assert_allclose(prod, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_to_matrix_matches_reference(self):
        for q in random_quats(20):
            np.testing.assert_allclose(
                quat_to_matrix(q), to_scipy(q).as_matrix(), atol=1e-12
            )

    def test_to_matrix_orthonormal(self):
        for q in random_quats(10):
            R = quat_to_matrix(q)
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_matrix_roundtrip(self):
        for q in random_quats(100, seed=3):
            back = matrix_to_quat(quat_to_matrix(q))
            np.testing.assert_allclose(back, q, atol=1e-9)

    def test_matrix_roundtrip_near_pi(self):
        """180-degree rotations exercise the non-default extraction branches."""
        for axis in (np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]):
            q = quat_from_axis_angle(axis, math.pi)
            back = matrix_to_quat(quat_to_matrix(q))
            np.testing.assert_allclose(
                quat_to_matrix(back), quat_to_matrix(q), atol=1e-9
            )


class TestQuatConstruction:
    def test_axis_angle_matches_reference(self):
        axis = np.array([1.0, -2.0, 0.5])
        axis /= np.linalg.norm(axis)
        angle = 0.7
        ours = quat_to_matrix(quat_from_axis_angle(axis, angle))
        theirs = Rotation.from_rotvec(axis * angle).as_matrix()
        np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_rotvec_matches_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            omega = rng.normal(size=3)
            np.testing.assert_allclose(
                quat_to_matrix(quat_from_rotvec(omega)),
                Rotation.from_rotvec(omega).as_matrix(),
                atol=1e-12,
            )

    def test_rotvec_tiny_angle_stable(self):
        q = quat_from_rotvec(np.array([1e-12, 0.0, 0.0]))
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(quat_to_matrix(q), np.eye(3), atol=1e-10)

    def test_rotvec_zero_is_identity(self):
        np.testing.assert_allclose(
            quat_from_rotvec(np.zeros(3)), [1.0, 0.0, 0.0, 0.0], atol=1e-15
        )

    def test_rotation_angle_known_value(self):
        """10 degrees about z is 0.17453293 radians."""
        q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), math.radians(10.0))
        assert quat_rotation_angle(q) == pytest.approx(0.17453292519943295, abs=1e-12)

    def test_rotation_angle_matches_reference(self):
        for q in random_quats(20, seed=5):
            assert quat_rotation_angle(q) == pytest.approx(
                float(to_scipy(q).magnitude()), abs=1e-9
            )

    def test_random_quaternions_are_unit(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            q = random_unit_quaternion(rng)
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
            assert q[0] >= 0.0


# ===========================================================================
# Pose
# ===========================================================================


class TestPose:
    def test_identity(self):
        p = Pose.identity()
        np.testing.assert_array_equal(p.translation, np.zeros(3))
        np.testing.assert_allclose(p.rotation_matrix(), np.eye(3))

    def test_normalizes_rotation_on_construction(self):
        p = Pose(np.array([2.0, 0.0, 0.0, 0.0]), np.zeros(3))
        np.testing.assert_allclose(p.rotation, [1.0, 0.0, 0.0, 0.0])

    def test_non_finite_translation_raises(self):
        with pytest.raises(ValueError):
            Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([np.nan, 0.0, 0.0]))

    def test_apply_matches_matrix(self, rng):
        for _ in range(20):
            p = Pose(random_unit_quaternion(rng), rng.normal(size=3))
            pts = rng.normal(size=(5, 3))
            expected = pts @ p.rotation_matrix().T + p.translation
            np.testing.assert_allclose(p.apply(pts), expected, atol=1e-12)

    def test_apply_single_point(self):
        p = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(p.apply(np.zeros(3)), [1.0, 2.0, 3.0])

    def test_compose_matches_matrix_product(self, rng):
        for _ in range(20):
            a = Pose(random_unit_quaternion(rng), rng.normal(size=3))
            b = Pose(random_unit_quaternion(rng), rng.normal(size=3))
            np.testing.assert_allclose(
                a.compose(b).matrix(), a.matrix() @ b.matrix(), atol=1e-12
            )

    def test_inverse_roundtrip(self, rng):
        for _ in range(20):
            p = Pose(random_unit_quaternion(rng), rng.normal(size=3))
            np.testing.assert_allclose(
                p.compose(p.inverse()).matrix(), np.eye(4), atol=1e-12
            )

    def test_matrix_roundtrip(self, rng):
        for _ in range(20):
            p = Pose(random_unit_quaternion(rng), rng.normal(size=3))
            back = Pose.from_matrix(p.matrix())
            np.testing.assert_allclose(back.matrix(), p.matrix(), atol=1e-9)

    def test_array_roundtrip(self, rng):
        p = Pose(random_unit_quaternion(rng), rng.normal(size=3))
        arr = p.as_array()
        assert arr.shape == (7,)
        back = Pose.from_array(arr)
        np.testing.assert_allclose(back.rotation, p.rotation, atol=1e-12)
        np.testing.assert_allclose(back.translation, p.translation, atol=1e-12)


class TestPoseDelta:
    def test_identical_poses(self):
        p = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 2.0, 3.0]))
        trans, rot = pose_delta(p, p)
        assert trans == pytest.approx(0.0, abs=1e-12)
        assert rot == pytest.approx(0.0, abs=1e-12)

    def test_pure_translation_345(self):
        a = Pose.identity()
        b = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([3.0, 4.0, 0.0]))
        trans, rot = pose_delta(a, b)
        assert trans == pytest.approx(5.0, abs=1e-12)
        assert rot == pytest.approx(0.0, abs=1e-12)

    def test_pure_rotation_10_degrees(self):
        a = Pose.identity()
        q = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), math.radians(10.0))
        b = Pose(q, np.zeros(3))
        trans, rot = pose_delta(a, b)
        assert trans == pytest.approx(0.0, abs=1e-12)
        assert rot == pytest.approx(0.17453292519943295, abs=1e-12)

    def test_symmetric(self, rng):
        for _ in range(10):
            a = Pose(random_unit_quaternion(rng), rng.normal(size=3))
            b = Pose(random_unit_quaternion(rng), rng.normal(size=3))
            np.testing.assert_allclose(pose_delta(a, b), pose_delta(b, a), atol=1e-12)

    def test_rotation_matches_reference_geodesic(self, rng):
        for _ in range(20):
            a = Pose(random_unit_quaternion(rng), np.zeros(3))
            b = Pose(random_unit_quaternion(rng), np.zeros(3))
            _, rot = pose_delta(a, b)
            rel = to_scipy(a.rotation).inv() * to_scipy(b.rotation)
            assert rot == pytest.approx(float(rel.magnitude()), abs=1e-9)


class TestLookAt:
    def test_forward_axis_points_at_target(self):
        eye = np.array([1.0, -2.0, 3.0])
        target = np.array([4.0, 0.0, -1.0])
        pose = look_at(eye, target)
        forward = pose.rotation_matrix()[:, 2]
        expected = (target - eye) / np.linalg.norm(target - eye)
        np.testing.assert_allclose(forward, expected, atol=1e-12)

    def test_target_projects_to_principal_point(self):
        cam = CameraIntrinsics(fx=250, fy=250, cx=160, cy=120, width=320, height=240)
        pose = look_at(np.array([0.0, 0.0, -5.0]), np.zeros(3))
        target_cam = pose.inverse().apply(np.zeros(3))
        px = cam.project(target_cam)[0]
        np.testing.assert_allclose(px, [160.0, 120.0], atol=1e-9)

    def test_rotation_is_proper(self):
        pose = look_at(np.array([2.0, 1.0, 0.0]), np.array([0.0, 0.0, 5.0]))
        R = pose.rotation_matrix()
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_coincident_target_raises(self):
        with pytest.raises(ValueError, match="coincides"):
            look_at(np.zeros(3), np.zeros(3))

    def test_parallel_up_hint_raises(self):
        with pytest.raises(ValueError, match="parallel"):
            look_at(np.zeros(3), np.array([0.0, 1.0, 0.0]))


# ===========================================================================
# Camera model
# ===========================================================================


class TestCameraIntrinsics:
    def test_on_axis_point_hits_principal_pixel(self, cam):
        px = cam.project(np.array([[0.0, 0.0, 2.0]]))
        np.testing.assert_allclose(px, [[160.0, 120.0]])

    def test_project_backproject_roundtrip(self, cam, rng):
        pixels = np.column_stack(
            [rng.uniform(0, cam.width, 50), rng.uniform(0, cam.height, 50)]
        )
        depths = rng.uniform(0.5, 20.0, 50)
        pts = cam.backproject(pixels, depths)
        np.testing.assert_allclose(cam.project(pts), pixels, atol=1e-9)
        np.testing.assert_allclose(pts[:, 2], depths)

    def test_offset_scales_with_focal_length(self):
        cam = CameraIntrinsics(fx=100, fy=200, cx=50, cy=60, width=100, height=120)
        px = cam.project(np.array([[1.0, 1.0, 2.0]]))[0]
        assert px[0] == pytest.approx(50.0 + 100.0 * 0.5)
        assert px[1] == pytest.approx(60.0 + 200.0 * 0.5)

    def test_contains_half_open_bounds(self, cam):
        pixels = np.array(
            [
                [0.0, 0.0],
                [cam.width - 1e-9, cam.height - 1e-9],
                [float(cam.width), 0.0],
                [0.0, float(cam.height)],
                [-0.001, 5.0],
            ]
        )
        np.testing.assert_array_equal(
            cam.contains(pixels), [True, True, False, False, False]
        )

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0, fy=250, cx=160, cy=120, width=320, height=240)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=250, fy=250, cx=160, cy=120, width=0, height=240)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=250, fy=250, cx=160, cy=120, width=320, height=240, near=0)


# ===========================================================================
# Trajectory container + disk format
# ===========================================================================


class TestTrajectory:
    def test_append_and_lookup(self):
        traj = Trajectory()
        traj.append(0, Pose.identity())
        traj.append(5, Pose(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0])))
        assert len(traj) == 2
        np.testing.assert_allclose(traj.pose_for(5).translation, [1.0, 0.0, 0.0])

    def test_non_increasing_index_raises(self):
        traj = Trajectory()
        traj.append(3, Pose.identity())
        with pytest.raises(ValueError, match="increasing"):
            traj.append(3, Pose.identity())

    def test_missing_index_raises_keyerror(self):
        traj = Trajectory()
        traj.append(0, Pose.identity())
        with pytest.raises(KeyError):
            traj.pose_for(7)

    def test_path_length_polyline(self):
        traj = Trajectory()
        traj.append(0, Pose(np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 0])))
        traj.append(1, Pose(np.array([1.0, 0, 0, 0]), np.array([3.0, 0, 0])))
        traj.append(2, Pose(np.array([1.0, 0, 0, 0]), np.array([3.0, 4, 0])))
        assert traj.path_length() == pytest.approx(7.0)

    def test_path_length_single_pose_is_zero(self):
        traj = Trajectory()
        traj.append(0, Pose.identity())
        assert traj.path_length() == 0.0


class TestTrajectoryIO:
    def make_traj(self, n=5, seed=0):
        rng = np.random.default_rng(seed)
        traj = Trajectory()
        for i in range(n):
            traj.append(i, Pose(random_unit_quaternion(rng), rng.normal(size=3)))
        return traj

    def test_roundtrip_exact(self, tmp_path):
        traj = self.make_traj()
        path = tmp_path / "poses.txt"
        save_trajectory(path, traj)
        back = load_trajectory(path)
        assert list(back.indices) == list(traj.indices)
        for a, b in zip(traj.poses, back.poses):
            np.testing.assert_allclose(b.matrix(), a.matrix(), atol=1e-12)

    def test_rewrite_is_byte_identical(self, tmp_path):
        traj = self.make_traj(seed=9)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_trajectory(p1, traj)
        save_trajectory(p2, traj)
        assert p1.read_bytes() == p2.read_bytes()

    def test_line_has_12_fields(self, tmp_path):
        traj = self.make_traj(n=1)
        path = tmp_path / "poses.txt"
        save_trajectory(path, traj)
        assert len(path.read_text().split()) == 12

    def test_wrong_field_count_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1\n")
        with pytest.raises(PoseFileError, match="line 1"):
            load_trajectory(path)

    def test_non_finite_value_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 nan\n")
        with pytest.raises(PoseFileError):
            load_trajectory(path)

    def test_non_orthonormal_rotation_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(PoseFileError, match="rotation"):
            load_trajectory(path)

    def test_non_numeric_field_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 x 0 1 0 0 0 0 1 0\n")
        with pytest.raises(PoseFileError):
            load_trajectory(path)
