"""Iterative render-match-solve relocalization of a monocular query image.

The loop retrieves the most similar anchor once, takes its pose as the
initial estimate, then repeats:

  1. render the scene at the current estimate (the first iteration reuses
     the anchor's stored render),
  2. match query features against the render,
  3. lift matched render pixels through the rendered depth into world space,
  4. solve a robust PnP for a new estimate,

until the pose update falls below both the translation and rotation
thresholds (``converged``), the iteration budget runs out
(``max_iterations``), or an iteration cannot produce a usable pose
(``failed``).  Every iteration leaves one ``IterationTrace``.

A failed result keeps the previous estimate as its final pose, and its
``message`` reads ``iteration <k>: <reason>``, the reason being one of

  * ``<n> matches < min_matches <m>``,
  * ``<n> lifted correspondences < min_matches <m>`` (the others fell on sky
    or too close to the image border),
  * ``pose solve failed: <error>`` (any ``SplatRelocError`` of ``solve_pnp``).

The failed iteration's trace holds the previous estimate as its pose, the
count, mean confidence and uniformity of that iteration's matches, both
deltas 0.0, and ``None`` for the inlier count and reprojection error.  Every
other error propagates, including any that a matcher raises.

A matcher is any object with ``match_pair(query_image, reference,
iteration) -> Matches`` (the ``Matcher`` protocol); this is how a learned
matcher plugs in.  Matchers and lifting see each reference as a
``ReferenceView``: its pose and float64 RGB and depth.  The first iteration
builds it once from the retrieved anchor's stored 8-bit levels and float32
depth; later iterations take it from the render.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from .anchors import AnchorDatabase, AnchorRecord, retrieve
from .errors import SplatRelocError
from .features import (
    Keypoints,
    Matches,
    OracleConfig,
    detect_and_describe,
    match_features,
    match_stats,
    oracle_match,
)
from .geometry import CameraIntrinsics, Pose, pose_delta
from .pnp import Correspondences, SolverReport, solve_pnp
from .renderer import render
from .scene import SplatScene

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_FAILED = "failed"


@dataclass(frozen=True)
class ReferenceView:
    """The image a query is matched against, as floats.

    ``rgb`` is (H, W, 3) in [0, 1] and ``depth`` (H, W) meters with 0 marking
    sky, both float64; ``pose`` is the camera-to-world pose they were
    rendered from.
    """

    pose: Pose
    rgb: np.ndarray
    depth: np.ndarray

    @classmethod
    def of_anchor(cls, anchor: AnchorRecord) -> ReferenceView:
        """A stored anchor's render: its 8-bit levels / 255 and its depth as float64."""
        return cls(anchor.pose, anchor.rgb / 255.0, anchor.depth.astype(np.float64))


def lift_to_3d(
    matches: Matches, reference: ReferenceView, cam: CameraIntrinsics
) -> Correspondences:
    """Turn 2D-2D matches into 2D-3D correspondences via rendered depth.

    The reference pixel's depth is sampled bilinearly; a match is dropped
    when any of its four depth neighbors is invalid (sky) or the sample
    window leaves the image.  Surviving reference pixels are back-projected
    and mapped through the reference pose into world coordinates.
    """
    depth = reference.depth
    H, W = depth.shape
    ref, query = matches.ref, matches.query
    u0f, v0f = np.floor(ref[:, 0]), np.floor(ref[:, 1])
    inside = (u0f >= 0) & (v0f >= 0) & (u0f + 1 <= W - 1) & (v0f + 1 <= H - 1)
    ref, query, u0f, v0f = ref[inside], query[inside], u0f[inside], v0f[inside]

    u0, v0 = u0f.astype(np.intp), v0f.astype(np.intp)
    patch = depth[v0[:, None, None] + np.array([[0], [1]]), u0[:, None, None] + np.array([0, 1])]
    valid = ~np.any(patch <= 0.0, axis=(1, 2))
    ref, query, patch = ref[valid], query[valid], patch[valid]
    au, av = ref[:, 0] - u0f[valid], ref[:, 1] - v0f[valid]
    d = (
        patch[:, 0, 0] * (1 - au) * (1 - av)
        + patch[:, 0, 1] * au * (1 - av)
        + patch[:, 1, 0] * (1 - au) * av
        + patch[:, 1, 1] * au * av
    )
    return Correspondences(pixels=query, points=reference.pose.apply(cam.backproject(ref, d)))


class Matcher(Protocol):
    """Pluggable query-to-render matching strategy.

    ``match_pair`` gets the float query image, the reference of this
    iteration (the retrieved anchor at iteration 1, a fresh render after it)
    and the 1-based iteration number; ``Matches.ref`` holds pixels of
    ``reference``.
    """

    def match_pair(
        self, query_image: np.ndarray, reference: ReferenceView, iteration: int
    ) -> Matches: ...


class ReferenceMatcher:
    """Detector + descriptor matching between the query and the render.

    Runs at the ``features`` module's settings; a query array's features are
    computed once and reused while the same array comes back.
    """

    def __init__(self) -> None:
        self._query_cache: tuple[np.ndarray, Keypoints, np.ndarray] | None = None

    def _query_features(self, query_image: np.ndarray) -> tuple[Keypoints, np.ndarray]:
        cached = self._query_cache
        if cached is not None and cached[0] is query_image:
            return cached[1], cached[2]
        keypoints, descriptors = detect_and_describe(query_image)
        self._query_cache = (query_image, keypoints, descriptors)
        return keypoints, descriptors

    def match_pair(
        self, query_image: np.ndarray, reference: ReferenceView, iteration: int
    ) -> Matches:
        kp_q, desc_q = self._query_features(query_image)
        kp_r, desc_r = detect_and_describe(reference.rgb)
        return match_features(kp_q, desc_q, kp_r, desc_r)


class OracleMatcher:
    """Ground-truth-driven matcher for controlled experiments.

    Ignores image content entirely: correspondences come from the reference
    render's depth and the known true query pose, with configured noise and
    outlier contamination.  Deterministic per (config.seed, iteration).
    """

    def __init__(self, query_pose_gt: Pose, cam: CameraIntrinsics, config: OracleConfig) -> None:
        self.query_pose_gt = query_pose_gt
        self.cam = cam
        self.config = config

    def match_pair(
        self, query_image: np.ndarray, reference: ReferenceView, iteration: int
    ) -> Matches:
        rng = np.random.default_rng([self.config.seed, iteration])
        matches, _ = oracle_match(
            self.query_pose_gt, reference.pose, reference.depth, self.cam, self.config, rng
        )
        return matches


@dataclass(frozen=True)
class RelocalizeConfig:
    """Loop termination and robustness settings."""

    max_iterations: int = 10
    trans_eps: float = 0.01  # meters
    rot_eps: float = 0.01  # radians
    min_matches: int = 12

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        # Written as "not >=" so that NaN, which no update falls below, fails too.
        if not self.trans_eps >= 0.0:
            raise ValueError(f"trans_eps must be non-negative, got {self.trans_eps}")
        if not self.rot_eps >= 0.0:
            raise ValueError(f"rot_eps must be non-negative, got {self.rot_eps}")


@dataclass
class IterationTrace:
    """Diagnostics for one loop iteration."""

    iteration: int  # 1-based
    pose: Pose  # estimate after this iteration
    match_count: int
    mean_confidence: float
    uniformity: float
    trans_delta: float  # update size vs the previous estimate, meters
    rot_delta: float  # radians
    # Consensus of this iteration's pose solve; None when no solve succeeded.
    inlier_count: int | None = None
    mean_reprojection_error: float | None = None  # pixels, over the inliers


@dataclass
class RelocalizationResult:
    """Final pose with status and per-iteration diagnostics."""

    final_pose: Pose
    status: str  # converged | max_iterations | failed
    anchor_id: int
    traces: list[IterationTrace] = field(default_factory=list)
    message: str = ""

    def to_dict(self) -> dict:
        traces = [
            {**vars(tr), "pose": [float(v) for v in tr.pose.as_array()]} for tr in self.traces
        ]
        return {
            "status": self.status,
            "anchor_id": self.anchor_id,
            "message": self.message,
            "final_pose": [float(v) for v in self.final_pose.as_array()],
            "iterations": len(self.traces),
            "traces": traces,
        }


def _solve(
    matches: Matches, reference: ReferenceView, cam: CameraIntrinsics, config: RelocalizeConfig
) -> SolverReport | str:
    """The iteration's pose solve, or the reason it could not give a pose."""
    if len(matches) < config.min_matches:
        return f"{len(matches)} matches < min_matches {config.min_matches}"
    corrs = lift_to_3d(matches, reference, cam)
    if len(corrs) < config.min_matches:
        return f"{len(corrs)} lifted correspondences < min_matches {config.min_matches}"
    try:
        return solve_pnp(corrs, cam)
    except SplatRelocError as exc:
        return f"pose solve failed: {exc}"


def relocalize(
    query_image: np.ndarray,
    scene: SplatScene,
    db: AnchorDatabase,
    matcher: Matcher,
    config: RelocalizeConfig | None = None,
) -> RelocalizationResult:
    """Estimate the query's camera-to-world pose against the anchor map."""
    config = config or RelocalizeConfig()
    cam = db.camera
    if query_image.shape[:2] != (cam.height, cam.width):
        raise ValueError(
            f"query image is {query_image.shape[1]}x{query_image.shape[0]} but the "
            f"database camera expects {cam.width}x{cam.height}"
        )
    anchor_id = retrieve(query_image, db)
    anchor = db.records[anchor_id]

    current = anchor.pose
    traces: list[IterationTrace] = []
    for iteration in range(1, config.max_iterations + 1):
        if iteration == 1:
            reference = ReferenceView.of_anchor(anchor)
        else:
            out = render(scene, current, cam)
            reference = ReferenceView(current, out.rgb, out.depth)

        matches = matcher.match_pair(query_image, reference, iteration)
        report = _solve(matches, reference, cam, config)
        stats = match_stats(matches, cam)

        if isinstance(report, str):
            traces.append(
                IterationTrace(
                    iteration=iteration, pose=current,
                    match_count=stats.count, mean_confidence=stats.mean_confidence,
                    uniformity=stats.uniformity, trans_delta=0.0, rot_delta=0.0,
                )
            )
            message = f"iteration {iteration}: {report}"
            return RelocalizationResult(current, STATUS_FAILED, anchor_id, traces, message)

        trans_delta, rot_delta = pose_delta(report.pose, current)
        current = report.pose
        traces.append(
            IterationTrace(
                iteration=iteration, pose=current,
                match_count=stats.count, mean_confidence=stats.mean_confidence,
                uniformity=stats.uniformity,
                trans_delta=trans_delta, rot_delta=rot_delta,
                inlier_count=report.inlier_count,
                mean_reprojection_error=report.mean_reprojection_error,
            )
        )
        if trans_delta <= config.trans_eps and rot_delta <= config.rot_eps:
            return RelocalizationResult(current, STATUS_CONVERGED, anchor_id, traces)

    return RelocalizationResult(current, STATUS_MAX_ITERATIONS, anchor_id, traces)


def save_result(path: str | Path, result: RelocalizationResult, query_id: str | None = None) -> None:
    """Write the result JSON (no wall-clock fields, so reruns are identical)."""
    payload = result.to_dict()
    if query_id is not None:
        payload["query_id"] = query_id
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
