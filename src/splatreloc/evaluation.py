"""Accuracy evaluation for batches of relocalization results.

Stage timing is not computed here: the library records spans (``spans.py``)
and the ``evaluate`` command averages the per-query totals they produce.

Conventions:
  * translation errors in meters, rotation errors in degrees,
  * trajectory statistics (ATE) use the population standard deviation, so
    rmse^2 = mean^2 + std^2 holds exactly,
  * recall thresholds are strict (error < threshold on both axes),
  * histogram bins are left-closed / right-open, with a single overflow
    bucket for values outside the edge range on either side.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .geometry import Pose, Trajectory, pose_delta
from .pnp import umeyama_align


@dataclass(frozen=True)
class AteStats:
    """Absolute trajectory error summary over per-frame translation errors."""

    rmse: float
    std: float  # population standard deviation
    mean: float
    median: float
    min: float
    max: float


def _axis_points(poses: list[Pose]) -> np.ndarray:
    """(4n, 3): each pose's position, then its position plus each camera axis."""
    return np.concatenate(
        [pose.translation + np.vstack([np.zeros(3), pose.rotation_matrix().T]) for pose in poses]
    )


def pose_errors(
    estimated: Trajectory, ground_truth: Trajectory, align: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame translation (m) and rotation (deg) errors.

    Frames are paired by index; both trajectories must cover the same index
    set.  With ``align=True`` a rigid transform (no scale) is fit from the
    estimated to the ground-truth poses first and applied to the estimates;
    that needs at least 3 frames.  The fit matches each frame's position and
    the tips of its three camera axes, 1 m from it, so the orientations fix
    the transform too, also along a straight path.  Returns (indices,
    translation_errors, rotation_errors_deg).
    """
    if list(estimated.indices) != list(ground_truth.indices):
        raise ValueError(
            f"trajectories cover different frames: {estimated.indices} vs {ground_truth.indices}"
        )
    if len(estimated) == 0:
        raise ValueError("cannot evaluate empty trajectories")

    est_poses = list(estimated.poses)
    if align:
        if len(est_poses) < 3:
            raise ValueError(f"alignment needs at least 3 frames, got {len(est_poses)}")
        correction = umeyama_align(_axis_points(est_poses), _axis_points(ground_truth.poses))
        est_poses = [correction.compose(p) for p in est_poses]

    trans_errors = np.empty(len(est_poses))
    rot_errors = np.empty(len(est_poses))
    for i, (est, gt) in enumerate(zip(est_poses, ground_truth.poses)):
        trans, rot = pose_delta(est, gt)
        trans_errors[i] = trans
        rot_errors[i] = math.degrees(rot)
    return np.array(estimated.indices), trans_errors, rot_errors


def ate_statistics(translation_errors: np.ndarray) -> AteStats:
    """Summary statistics of a translation-error sequence."""
    errors = np.asarray(translation_errors, dtype=np.float64).reshape(-1)
    if errors.size == 0:
        raise ValueError("cannot summarize an empty error sequence")
    if np.any(errors < 0) or not np.all(np.isfinite(errors)):
        raise ValueError("errors must be finite and non-negative")
    return AteStats(
        rmse=float(np.sqrt(np.mean(errors**2))),
        std=float(np.std(errors)),  # population (ddof=0)
        mean=float(np.mean(errors)),
        median=float(np.median(errors)),
        min=float(np.min(errors)),
        max=float(np.max(errors)),
    )


def recall_at(
    translation_errors: np.ndarray,
    rotation_errors_deg: np.ndarray,
    trans_threshold: float,
    rot_threshold_deg: float,
) -> float:
    """Fraction of frames with both errors strictly below their thresholds."""
    trans = np.asarray(translation_errors, dtype=np.float64).reshape(-1)
    rot = np.asarray(rotation_errors_deg, dtype=np.float64).reshape(-1)
    if trans.shape != rot.shape:
        raise ValueError("error arrays must have equal length")
    if trans.size == 0:
        raise ValueError("cannot compute recall over zero frames")
    hits = (trans < trans_threshold) & (rot < rot_threshold_deg)
    return float(np.count_nonzero(hits) / trans.size)


def error_histogram(
    values: np.ndarray, bin_edges: np.ndarray
) -> tuple[np.ndarray, int]:
    """Left-closed right-open histogram plus an overflow count.

    A value lands in bin i when edges[i] <= v < edges[i+1]; anything below
    the first edge or at/above the last edge goes to the overflow bucket.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    edges = np.asarray(bin_edges, dtype=np.float64).reshape(-1)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be strictly increasing with >= 2 entries")
    slot = np.digitize(values, edges, right=False)  # 0 below, len(edges) at/above top
    counts = np.array(
        [int(np.count_nonzero(slot == i)) for i in range(1, edges.size)], dtype=np.int64
    )
    overflow = int(values.size - counts.sum())
    return counts, overflow


def write_ate_csv(path: str | Path, rows: list[tuple[str, AteStats]]) -> None:
    """One CSV row of summary statistics per sequence."""
    lines = [",".join(["seq"] + [f.name for f in fields(AteStats)])]
    for name, stats in rows:
        lines.append(",".join([name] + [repr(float(v)) for v in astuple(stats)]))
    Path(path).write_text("\n".join(lines) + "\n")


def make_pose_trajectories(
    entries: list[tuple[int, Pose, Pose]]
) -> tuple[Trajectory, Trajectory]:
    """Split (index, estimated, ground-truth) triples into two trajectories."""
    entries = sorted(entries, key=lambda e: e[0])
    est = Trajectory()
    gt = Trajectory()
    for index, est_pose, gt_pose in entries:
        est.append(index, est_pose)
        gt.append(index, gt_pose)
    return est, gt
