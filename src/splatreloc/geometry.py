"""Rigid-body pose algebra, camera intrinsics, and trajectory file I/O.

Conventions used throughout the package:
  * quaternions are stored as (w, x, y, z) with unit norm and w >= 0,
  * a Pose maps camera-frame points to world-frame points (camera-to-world),
  * the camera frame is x-right, y-down, z-forward (pinhole looks along +z),
  * trajectory files hold one camera-to-world 3x4 [R|t] per line, row-major,
    12 whitespace-separated floats (KITTI odometry layout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import PoseFileError

_QUAT_NORM_EPS = 1e-12


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Return q scaled to unit norm with the scalar part non-negative."""
    q = np.asarray(q, dtype=np.float64)
    norm = float(np.linalg.norm(q))
    if not math.isfinite(norm):
        raise ValueError("quaternion must be finite")
    if norm < _QUAT_NORM_EPS:
        raise ValueError("quaternion has near-zero norm")
    q = q / norm
    if q[0] < 0.0:
        q = -q
    return q


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b for (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix (Shepperd's method)."""
    R = np.asarray(R, dtype=np.float64)
    t = R[0, 0] + R[1, 1] + R[2, 2]
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    return quat_normalize(q)


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unit quaternion rotating by `angle` radians around `axis`."""
    axis = np.asarray(axis, dtype=np.float64)
    norm = float(np.linalg.norm(axis))
    if norm < _QUAT_NORM_EPS:
        raise ValueError("rotation axis has near-zero norm")
    half = 0.5 * angle
    return quat_normalize(np.concatenate([[np.cos(half)], np.sin(half) * axis / norm]))


def quat_from_rotvec(omega: np.ndarray) -> np.ndarray:
    """Unit quaternion for a rotation vector (axis * angle), stable near zero."""
    omega = np.asarray(omega, dtype=np.float64)
    angle = float(np.linalg.norm(omega))
    if angle < 1e-12:
        # First-order expansion: q ~ (1, omega / 2).
        return quat_normalize(np.concatenate([[1.0], 0.5 * omega]))
    return quat_from_axis_angle(omega, angle)


def quat_rotation_angle(q: np.ndarray) -> float:
    """Geodesic rotation angle of a unit quaternion, in [0, pi]."""
    vec_norm = float(np.linalg.norm(q[1:]))
    return 2.0 * float(np.arctan2(vec_norm, abs(float(q[0]))))


@dataclass(frozen=True)
class Pose:
    """Camera-to-world rigid transform: p_world = R(q) @ p_cam + t."""

    rotation: np.ndarray  # unit quaternion (w, x, y, z), w >= 0
    translation: np.ndarray  # (3,) meters

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation", quat_normalize(self.rotation))
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError("pose translation must be finite")
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @staticmethod
    def from_matrix(T: np.ndarray) -> "Pose":
        """Build from a 4x4 or 3x4 homogeneous [R|t] matrix."""
        T = np.asarray(T, dtype=np.float64)
        return Pose(matrix_to_quat(T[:3, :3]), T[:3, 3])

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous camera-to-world matrix."""
        T = np.eye(4)
        T[:3, :3] = self.rotation_matrix()
        T[:3, 3] = self.translation
        return T

    def compose(self, other: "Pose") -> "Pose":
        """self @ other: apply `other` first, then `self`."""
        q = quat_multiply(self.rotation, other.rotation)
        t = self.rotation_matrix() @ other.translation + self.translation
        return Pose(q, t)

    def inverse(self) -> "Pose":
        q_inv = quat_conjugate(self.rotation)
        R_inv = quat_to_matrix(q_inv)
        return Pose(q_inv, -(R_inv @ self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform camera-frame points (3,) or (N, 3) into the world frame."""
        points = np.asarray(points, dtype=np.float64)
        R = self.rotation_matrix()
        if points.ndim == 1:
            return R @ points + self.translation
        return points @ R.T + self.translation

    def as_array(self) -> np.ndarray:
        """Pack as 7 floats (qw, qx, qy, qz, tx, ty, tz)."""
        return np.concatenate([self.rotation, self.translation])

    @staticmethod
    def from_array(values: np.ndarray) -> "Pose":
        values = np.asarray(values, dtype=np.float64).reshape(7)
        return Pose(values[:4], values[4:])


def pose_delta(a: Pose, b: Pose) -> tuple[float, float]:
    """Translation distance (m) and geodesic rotation angle (rad) between poses."""
    trans = float(np.linalg.norm(a.translation - b.translation))
    q_rel = quat_multiply(quat_conjugate(a.rotation), b.rotation)
    return trans, quat_rotation_angle(q_rel)


def look_at(eye: np.ndarray, target: np.ndarray, up_hint: np.ndarray | None = None) -> Pose:
    """Camera-to-world pose at `eye` with the optical axis through `target`."""
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.array([0.0, 1.0, 0.0]) if up_hint is None else np.asarray(up_hint, dtype=np.float64)
    forward = target - eye
    norm = float(np.linalg.norm(forward))
    if norm < 1e-12:
        raise ValueError("look_at target coincides with eye")
    forward = forward / norm
    right = np.cross(up, forward)
    right_norm = float(np.linalg.norm(right))
    if right_norm < 1e-9:
        raise ValueError("look_at direction is parallel to the up hint")
    right = right / right_norm
    down = np.cross(forward, right)
    R = np.column_stack([right, down, forward])
    return Pose(matrix_to_quat(R), eye)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera: pixel = (fx * x / z + cx, fy * y / z + cy)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    near: float = 0.1

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.near <= 0:
            raise ValueError("near plane must be positive")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def project(self, points_cam: np.ndarray) -> np.ndarray:
        """Project camera-frame points (N, 3) to pixels (N, 2); z must be > 0."""
        points_cam = np.atleast_2d(np.asarray(points_cam, dtype=np.float64))
        z = points_cam[:, 2]
        u = self.fx * points_cam[:, 0] / z + self.cx
        v = self.fy * points_cam[:, 1] / z + self.cy
        return np.column_stack([u, v])

    def backproject(self, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Lift pixels (N, 2) at metric depths (N,) to camera-frame points (N, 3)."""
        pixels = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
        depths = np.asarray(depths, dtype=np.float64).reshape(-1)
        x = (pixels[:, 0] - self.cx) * depths / self.fx
        y = (pixels[:, 1] - self.cy) * depths / self.fy
        return np.column_stack([x, y, depths])

    def contains(self, pixels: np.ndarray) -> np.ndarray:
        """Boolean mask of pixels inside [0, width) x [0, height)."""
        pixels = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
        return (
            (pixels[:, 0] >= 0.0)
            & (pixels[:, 0] < self.width)
            & (pixels[:, 1] >= 0.0)
            & (pixels[:, 1] < self.height)
        )


@dataclass
class Trajectory:
    """Ordered list of (frame index, camera-to-world pose) pairs."""

    indices: list[int] = field(default_factory=list)
    poses: list[Pose] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.poses):
            raise ValueError("indices and poses must have equal length")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("trajectory indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.poses)

    def __iter__(self):
        return iter(zip(self.indices, self.poses))

    def append(self, index: int, pose: Pose) -> None:
        if self.indices and index <= self.indices[-1]:
            raise ValueError("trajectory indices must be strictly increasing")
        self.indices.append(index)
        self.poses.append(pose)

    def pose_for(self, index: int) -> Pose:
        try:
            return self.poses[self.indices.index(index)]
        except ValueError:
            raise KeyError(f"no pose for frame index {index}") from None

    def path_length(self) -> float:
        """Total metric length of the polyline through the pose translations."""
        if len(self.poses) < 2:
            return 0.0
        pts = np.array([p.translation for p in self.poses])
        return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def save_trajectory(path: str | Path, trajectory: Trajectory) -> None:
    """Write one row-major 3x4 [R|t] camera-to-world matrix per line."""
    lines = []
    for _, pose in trajectory:
        M = pose.matrix()[:3, :]
        lines.append(" ".join(repr(float(v)) for v in M.reshape(-1)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_trajectory(path: str | Path) -> Trajectory:
    """Read a pose file written by `save_trajectory` (KITTI odometry layout)."""
    trajectory = Trajectory()
    text = Path(path).read_text()
    frame = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 12:
            raise PoseFileError(f"{path}: line {lineno}: expected 12 values, got {len(fields)}")
        try:
            values = np.array([float(f) for f in fields])
        except ValueError as exc:
            raise PoseFileError(f"{path}: line {lineno}: {exc}") from None
        if not np.all(np.isfinite(values)):
            raise PoseFileError(f"{path}: line {lineno}: non-finite value")
        M = values.reshape(3, 4)
        R = M[:3, :3]
        if abs(float(np.linalg.det(R)) - 1.0) > 1e-3 or np.max(np.abs(R @ R.T - np.eye(3))) > 1e-3:
            raise PoseFileError(f"{path}: line {lineno}: rotation block is not orthonormal")
        trajectory.append(frame, Pose(matrix_to_quat(R), M[:3, 3]))
        frame += 1
    return trajectory
