"""Feature detection and matching between a query image and a rendered view.

The built-in detector is a multi-scale Harris corner detector with greedy
non-maximum suppression.  Descriptors are SIFT-like 128-vectors: a 4x4 grid
of 8-bin gradient-orientation histograms sampled around the keypoint at the
detection scale, L2-normalized.  Matching is mutual nearest neighbor with a
ratio test; confidence is 1 - (best / second-best distance).

An oracle matcher is provided for controlled experiments: it manufactures
ground-truth correspondences from rendered depth and known poses, with
configurable pixel noise and outlier contamination.

Match-exchange file format (ASCII):

    matches v1 <query_w> <query_h> <ref_w> <ref_h> <count>
    <u_query> <v_query> <u_ref> <v_ref> <confidence>
    ...
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import MatchFileError
from .geometry import CameraIntrinsics, Pose

MIN_IMAGE_DIM = 32
DESCRIPTOR_DIM = 128


def _rows(values, name: str, width: int = 0) -> np.ndarray:
    """``values`` as float64 of shape (n, width), or (n,) when width is 0."""
    array = np.asarray(values, dtype=np.float64)
    trailing = (width,) if width else ()
    if array.ndim != 1 + len(trailing) or array.shape[1:] != trailing:
        raise ValueError(f"{name} must have shape {('n', *trailing)}, got {array.shape}")
    return array


def _check_rows(**arrays: np.ndarray) -> None:
    """Raise unless every array has the same number of rows."""
    if len({a.shape[0] for a in arrays.values()}) > 1:
        counts = ", ".join(f"{a.shape[0]} {name}" for name, a in arrays.items())
        raise ValueError(f"row counts differ: {counts}")


@dataclass(frozen=True)
class Keypoints:
    """Detected interest points, one row per keypoint."""

    positions: np.ndarray  # (n, 2) sub-pixel (u, v)
    scales: np.ndarray  # (n,) blur sigma at which each corner was found
    scores: np.ndarray  # (n,) normalized response in [0, 1]

    def __post_init__(self) -> None:
        positions = _rows(self.positions, "positions", 2)
        scales = _rows(self.scales, "scales")
        scores = _rows(self.scores, "scores")
        _check_rows(positions=positions, scales=scales, scores=scores)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "scores", scores)

    @classmethod
    def empty(cls) -> Keypoints:
        return cls(np.zeros((0, 2)), np.zeros(0), np.zeros(0))

    def __len__(self) -> int:
        return self.positions.shape[0]

    def __getitem__(self, index) -> Keypoints:
        """The keypoints selected by a slice, an index array or a boolean mask."""
        return Keypoints(self.positions[index], self.scales[index], self.scores[index])


@dataclass(frozen=True)
class Matches:
    """Query-to-reference pixel correspondences, one row per match."""

    query: np.ndarray  # (n, 2) pixels in the query image
    ref: np.ndarray  # (n, 2) pixels in the reference (rendered) image
    confidence: np.ndarray  # (n,) in [0, 1]

    def __post_init__(self) -> None:
        query = _rows(self.query, "query", 2)
        ref = _rows(self.ref, "ref", 2)
        confidence = _rows(self.confidence, "confidence")
        _check_rows(query=query, ref=ref, confidence=confidence)
        if not np.all((confidence >= 0.0) & (confidence <= 1.0)):
            raise ValueError("match confidence must lie in [0, 1]")
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "ref", ref)
        object.__setattr__(self, "confidence", confidence)

    @classmethod
    def empty(cls) -> Matches:
        return cls(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))

    def __len__(self) -> int:
        return self.query.shape[0]

    def __getitem__(self, index) -> Matches:
        """The matches selected by a slice, an index array or a boolean mask."""
        return Matches(self.query[index], self.ref[index], self.confidence[index])


@dataclass(frozen=True)
class DetectorConfig:
    """Knobs for the Harris detector and descriptor extraction."""

    scales: tuple[float, ...] = (1.0, 2.0, 4.0)
    harris_k: float = 0.04
    rel_threshold: float = 0.01  # keep responses above rel_threshold * max
    abs_threshold: float = 1e-10
    nms_radius: float = 4.0
    max_keypoints: int = 2048


@dataclass(frozen=True)
class MatcherConfig:
    """Knobs for descriptor matching."""

    ratio: float = 0.8


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """Luminance of an (H, W, 3) image, or pass (H, W) through unchanged."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        return image
    return 0.299 * image[:, :, 0] + 0.587 * image[:, :, 1] + 0.114 * image[:, :, 2]


def _harris_response(
    gray: np.ndarray, sigma: float, k: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``gray`` blurred at sigma, and the Harris response
    det(M) - k * trace(M)^2 of their structure tensor M."""
    gy, gx = np.gradient(gaussian_filter(gray, sigma, mode="nearest"))
    sxx = gaussian_filter(gx * gx, 1.5 * sigma, mode="nearest")
    sxy = gaussian_filter(gx * gy, 1.5 * sigma, mode="nearest")
    syy = gaussian_filter(gy * gy, 1.5 * sigma, mode="nearest")
    return gx, gy, (sxx * syy - sxy * sxy) - k * (sxx + syy) ** 2


def _peaks(resp: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-pixel u, v and response of the 3x3 local maxima above threshold.

    Peaks come in row-major order.  Each axis is refined by quadratic
    interpolation through the peak and its two neighbors, clamped to half a
    pixel, and left on the pixel where the parabola is flat.
    """
    interior = resp[1:-1, 1:-1]
    is_peak = (
        (interior >= resp[:-2, :-2]) & (interior >= resp[:-2, 1:-1]) & (interior >= resp[:-2, 2:])
        & (interior >= resp[1:-1, :-2]) & (interior >= resp[1:-1, 2:])
        & (interior >= resp[2:, :-2]) & (interior >= resp[2:, 1:-1]) & (interior >= resp[2:, 2:])
        & (interior > threshold)
    )
    rows, cols = np.nonzero(is_peak)
    rows += 1
    cols += 1
    mid = resp[rows, cols]
    refined = []
    for at, before, after in (
        (cols, resp[rows, cols - 1], resp[rows, cols + 1]),
        (rows, resp[rows - 1, cols], resp[rows + 1, cols]),
    ):
        denom = before - 2.0 * mid + after
        step = np.divide(
            0.5 * (before - after), denom, out=np.zeros_like(denom), where=np.abs(denom) > 1e-12
        )
        refined.append(at + np.clip(step, -0.5, 0.5))
    return refined[0], refined[1], mid


def _suppress(positions: np.ndarray, radius: float, cap: int) -> np.ndarray:
    """Indices of the rows that greedy non-maximum suppression keeps, in order.

    Rows come strongest first; each is kept unless a kept row lies closer
    than ``radius``.  Stops once ``cap`` rows are kept.
    """
    r2 = radius**2
    taken = np.empty_like(positions)
    kept: list[int] = []
    for i, uv in enumerate(positions):
        d = uv - taken[: len(kept)]
        if np.any(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < r2):
            continue
        taken[len(kept)] = uv
        kept.append(i)
        if len(kept) >= cap:
            break
    return np.array(kept, dtype=np.intp)


#: Descriptor cell (4x4 grid, row-major) of each sample in the 16x16 grid.
_CELLS = np.arange(16)[:, None] // 4 * 4 + np.arange(16)[None, :] // 4


def _describe(
    gx: np.ndarray, gy: np.ndarray, positions: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """128-dim gradient-orientation patch descriptors (4x4 cells x 8 bins).

    Samples a 16x16 grid spaced by the detection sigma around each of the
    (K, 2) keypoint positions, using bilinear interpolation of the image
    gradients, and returns (K, 128) unit descriptors with a mask of the
    valid rows.  A row is invalid when its window leaves the image or its
    patch is flat.
    """
    H, W = gx.shape
    u, v = positions.T
    offsets = (np.arange(16) - 7.5) * sigma
    inside = (
        (u + offsets[0] >= 0) & (u + offsets[-1] <= W - 2)
        & (v + offsets[0] >= 0) & (v + offsets[-1] <= H - 2)
    )
    us = u[inside, None, None] + offsets[None, None, :]
    vs = v[inside, None, None] + offsets[None, :, None]
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

    # One histogram per (keypoint, cell); the row-major flattening hands each
    # cell's samples to bincount in row-major order within the cell.
    n = len(mag)
    index = (np.arange(n)[:, None, None] * 16 + _CELLS) * 8 + bins
    hist = np.bincount(index.ravel(), weights=mag.ravel(), minlength=n * DESCRIPTOR_DIM)
    descriptors = np.zeros((len(u), DESCRIPTOR_DIM))
    descriptors[inside] = hist.reshape(n, DESCRIPTOR_DIM)

    # One BLAS dot per row, the sum np.linalg.norm takes for a single vector.
    # Rows outside the image are zero, so they count as flat.
    norms = np.sqrt(descriptors[:, None, :] @ descriptors[:, :, None]).reshape(len(u))
    valid = ~(norms < 1e-12)
    descriptors[valid] /= norms[valid, None]
    return descriptors, valid


def detect_and_describe(
    image: np.ndarray, config: DetectorConfig | None = None
) -> tuple[Keypoints, np.ndarray]:
    """Detect Harris keypoints and compute their descriptors.

    Returns keypoints sorted by descending score (ties broken by position)
    and an (N, 128) descriptor array aligned with the keypoint rows.
    """
    config = config or DetectorConfig()
    gray = to_grayscale(image)
    if min(gray.shape) < MIN_IMAGE_DIM:
        raise ValueError(
            f"image must be at least {MIN_IMAGE_DIM}px on each side, got {gray.shape}"
        )

    levels = [_harris_response(gray, sigma, config.harris_k) for sigma in config.scales]
    global_max = max([0.0] + [float(resp.max(initial=0.0)) for _, _, resp in levels])
    if global_max <= config.abs_threshold:
        return Keypoints.empty(), np.zeros((0, DESCRIPTOR_DIM))

    # Peaks of every scale, strongest first, ties by (v, u) then scale order.
    threshold = max(config.abs_threshold, config.rel_threshold * global_max)
    peaks = [_peaks(resp, threshold) for _, _, resp in levels]
    u, v, resp = (np.concatenate(column) for column in zip(*peaks))
    positions = np.column_stack([u, v])
    level = np.repeat(np.arange(len(levels)), [len(p[0]) for p in peaks])
    scores = resp / global_max
    order = np.lexsort((u, v, -scores))

    # Greedy NMS across scales, then describe the survivors one scale at a time.
    cap = 4 * config.max_keypoints
    kept = order[_suppress(positions[order], config.nms_radius, cap)]
    descriptors = np.zeros((len(kept), DESCRIPTOR_DIM))
    valid = np.zeros(len(kept), dtype=bool)
    for i, ((gx, gy, _), sigma) in enumerate(zip(levels, config.scales)):
        at = level[kept] == i
        descriptors[at], valid[at] = _describe(gx, gy, positions[kept[at]], sigma)

    # The first valid survivors; like NMS, the cap keeps at least one.
    limit = max(config.max_keypoints, 1)
    chosen = kept[valid][:limit]
    keypoints = Keypoints(
        positions=positions[chosen],
        scales=np.array(config.scales, dtype=np.float64)[level[chosen]],
        scores=scores[chosen],
    )
    return keypoints, descriptors[valid][:limit]


def match_features(
    keypoints_a: Keypoints,
    descriptors_a: np.ndarray,
    keypoints_b: Keypoints,
    descriptors_b: np.ndarray,
    config: MatcherConfig | None = None,
) -> Matches:
    """Mutual nearest-neighbor matching with a two-sided ratio test.

    Side ``a`` is the query image, side ``b`` the reference.  Mutual nearest
    neighbors pair each keypoint with at most one other.  Confidence is 1
    minus the worse of the two directions' ratio, clamped to [0, 1], so the
    result is symmetric in its arguments (up to swapping pixel roles).
    Matches come ordered by descriptor distance, then by query keypoint.
    """
    config = config or MatcherConfig()
    if len(keypoints_a) == 0 or len(keypoints_b) == 0:
        return Matches.empty()

    # Squared euclidean distances via the unit-norm descriptor dot products.
    dots = descriptors_a @ descriptors_b.T
    d2 = np.maximum(2.0 - 2.0 * dots, 0.0)

    nn_ab = np.argmin(d2, axis=1)
    nn_ba = np.argmin(d2, axis=0)
    ia = np.flatnonzero(nn_ba[nn_ab] == np.arange(len(keypoints_a)))
    ib = nn_ab[ia]

    # Best / second-best distance along the pair's row and along its column.
    # The pair is the minimum of both, so the second best is each one's
    # second-smallest value; with no second candidate the ratio is 0.
    best = np.sqrt(d2[ia, ib])
    ratios = []
    for dist in (d2[ia], d2[:, ib].T):
        ratio = np.zeros(len(ia))
        if dist.shape[1] >= 2:
            second = np.sqrt(np.partition(dist, 1, axis=1)[:, 1])
            ratio = np.divide(best, second, out=np.ones(len(ia)), where=second >= 1e-12)
        ratios.append(ratio)
    worst = np.maximum(*ratios)

    keep = worst <= config.ratio
    ia, ib, worst = ia[keep], ib[keep], worst[keep]
    order = np.lexsort((ia, d2[ia, ib]))
    ia, ib, worst = ia[order], ib[order], worst[order]
    return Matches(
        query=keypoints_a.positions[ia],
        ref=keypoints_b.positions[ib],
        confidence=np.clip(1.0 - worst, 0.0, 1.0),
    )


@dataclass(frozen=True)
class MatchStats:
    """Aggregate statistics over one set of matches."""

    count: int
    mean_confidence: float
    uniformity: float  # 8x8 occupancy entropy / log(64), in [0, 1]


def match_stats(matches: Matches, cam: CameraIntrinsics) -> MatchStats:
    """Count, mean confidence, and spatial uniformity of query-side pixels."""
    if len(matches) == 0:
        return MatchStats(count=0, mean_confidence=0.0, uniformity=0.0)
    pixels = matches.query
    cols = np.minimum((pixels[:, 0] / cam.width * 8).astype(int), 7)
    rows = np.minimum((pixels[:, 1] / cam.height * 8).astype(int), 7)
    counts = np.bincount(rows * 8 + cols, minlength=64).astype(np.float64)
    p = counts[counts > 0] / counts.sum()
    entropy = float(-np.sum(p * np.log(p)))
    return MatchStats(
        count=len(matches),
        mean_confidence=float(matches.confidence.mean()),
        uniformity=entropy / np.log(64.0),
    )


@dataclass(frozen=True)
class OracleConfig:
    """Controls for the ground-truth-driven match generator."""

    n: int = 150
    pixel_noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    seed: int = 0
    border_margin: int = 3  # reference pixels sampled this far from the edge

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("oracle n must be >= 1")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1]")
        if self.pixel_noise_sigma < 0.0:
            raise ValueError("pixel_noise_sigma must be non-negative")


def oracle_match(
    query_pose_gt: Pose,
    ref_pose: Pose,
    ref_depth: np.ndarray,
    cam: CameraIntrinsics,
    config: OracleConfig,
    rng: np.random.Generator | None = None,
) -> tuple[Matches, np.ndarray]:
    """Manufacture correspondences from rendered depth and known poses.

    Samples up to ``config.n`` valid-depth reference pixels (away from the
    image border), lifts them through the reference depth into world space,
    and projects them into the ground-truth query view.  Samples that fall
    outside the query image are dropped, so the returned count tracks the
    view overlap.  Gaussian pixel noise is added on the query side (clamped
    to the image), and a fixed fraction of the survivors is replaced by
    uniform random query pixels (outliers, confidence 0).

    Returns the matches and a boolean outlier mask aligned with them.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    m = config.border_margin
    valid = ref_depth > 0.0
    if m > 0:
        valid[:m, :] = False
        valid[-m:, :] = False
        valid[:, :m] = False
        valid[:, -m:] = False
    rows, cols = np.nonzero(valid)
    if rows.size < config.n:
        raise ValueError(
            f"reference depth has only {rows.size} valid interior pixels, need {config.n}"
        )
    pick = rng.choice(rows.size, size=config.n, replace=False)
    ref_px = np.column_stack([cols[pick], rows[pick]]).astype(np.float64)

    depths = ref_depth[rows[pick], cols[pick]]
    pts_world = ref_pose.apply(cam.backproject(ref_px, depths))

    w2c = query_pose_gt.inverse()
    pts_query = pts_world @ w2c.rotation_matrix().T + w2c.translation
    in_front = pts_query[:, 2] > cam.near
    query_px = np.full((config.n, 2), -1.0)
    query_px[in_front] = cam.project(pts_query[in_front])
    keep = in_front & cam.contains(query_px)

    ref_px = ref_px[keep]
    query_px = query_px[keep]
    kept = ref_px.shape[0]

    if config.pixel_noise_sigma > 0.0:
        query_px = query_px + rng.normal(0.0, config.pixel_noise_sigma, size=query_px.shape)
        query_px[:, 0] = np.clip(query_px[:, 0], 0.0, cam.width - 1e-3)
        query_px[:, 1] = np.clip(query_px[:, 1], 0.0, cam.height - 1e-3)

    outlier_mask = np.zeros(kept, dtype=bool)
    n_outliers = int(round(kept * config.outlier_fraction))
    if n_outliers > 0:
        chosen = rng.choice(kept, size=n_outliers, replace=False)
        outlier_mask[chosen] = True
        query_px[chosen, 0] = rng.uniform(0.0, cam.width - 1e-3, size=n_outliers)
        query_px[chosen, 1] = rng.uniform(0.0, cam.height - 1e-3, size=n_outliers)

    matches = Matches(query=query_px, ref=ref_px, confidence=np.where(outlier_mask, 0.0, 1.0))
    return matches, outlier_mask


def save_matches(
    path: str | Path,
    matches: Matches,
    query_size: tuple[int, int],
    ref_size: tuple[int, int],
) -> None:
    """Write matches in the ``matches v1`` exchange format (sizes are (w, h))."""
    qw, qh = query_size
    rw, rh = ref_size
    lines = [f"matches v1 {qw} {qh} {rw} {rh} {len(matches)}"]
    table = np.column_stack([matches.query, matches.ref, matches.confidence])
    for row in table.tolist():
        lines.append(" ".join(repr(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_matches(
    path: str | Path,
    query_size: tuple[int, int],
    ref_size: tuple[int, int],
) -> Matches:
    """Read a ``matches v1`` file, validating sizes, bounds, and confidences."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise MatchFileError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 7 or header[0] != "matches" or header[1] != "v1":
        raise MatchFileError(f"{path}: bad header {lines[0]!r}")
    try:
        qw, qh, rw, rh, count = (int(v) for v in header[2:])
    except ValueError:
        raise MatchFileError(f"{path}: non-integer header field") from None
    if (qw, qh) != tuple(query_size) or (rw, rh) != tuple(ref_size):
        raise MatchFileError(
            f"{path}: header sizes {(qw, qh)}/{(rw, rh)} do not match images "
            f"{tuple(query_size)}/{tuple(ref_size)}"
        )
    if count != len(lines) - 1:
        raise MatchFileError(f"{path}: header promises {count} matches, found {len(lines) - 1}")

    table = np.empty((count, 5))
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if len(fields) != 5:
            raise MatchFileError(f"{path}: line {lineno}: expected 5 fields, got {len(fields)}")
        try:
            uq, vq, ur, vr, conf = (float(f) for f in fields)
        except ValueError as exc:
            raise MatchFileError(f"{path}: line {lineno}: {exc}") from None
        if not all(np.isfinite([uq, vq, ur, vr, conf])):
            raise MatchFileError(f"{path}: line {lineno}: non-finite value")
        if not (0.0 <= uq < qw and 0.0 <= vq < qh):
            raise MatchFileError(f"{path}: line {lineno}: query pixel out of bounds")
        if not (0.0 <= ur < rw and 0.0 <= vr < rh):
            raise MatchFileError(f"{path}: line {lineno}: reference pixel out of bounds")
        if not 0.0 <= conf <= 1.0:
            raise MatchFileError(f"{path}: line {lineno}: confidence out of [0, 1]")
        table[lineno - 2] = (uq, vq, ur, vr, conf)
    return Matches(query=table[:, 0:2], ref=table[:, 2:4], confidence=table[:, 4])
