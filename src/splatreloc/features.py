"""Feature detection and matching between a query image and a rendered view.

The built-in detector is a multi-scale Harris corner detector with greedy
non-maximum suppression.  Descriptors are SIFT-like 128-vectors: a 4x4 grid
of 8-bin gradient-orientation histograms sampled around the keypoint at the
detection scale, L2-normalized.  Matching is mutual nearest neighbor with a
ratio test; confidence is 1 - (best / second-best distance).  Their settings
are the module constants ``SCALES``, ``HARRIS_K``, ``REL_THRESHOLD``,
``ABS_THRESHOLD``, ``NMS_RADIUS``, ``MAX_KEYPOINTS`` and ``MATCH_RATIO``, read
at each call.

An oracle matcher is provided for controlled experiments: it manufactures
ground-truth correspondences from rendered depth and known poses, with
configurable pixel noise and outlier contamination.  Both return
``Matches``: query pixels, reference pixels and confidences, one row per match.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import CameraIntrinsics, Pose
from .spans import traced

MIN_IMAGE_DIM = 32
DESCRIPTOR_DIM = 128

#: Blur sigmas at which the Harris detector looks for corners.
SCALES = (1.0, 2.0, 4.0)
#: Trace weight k of the Harris response det(M) - k * trace(M)^2.
HARRIS_K = 0.04
#: A peak must exceed this fraction of the image's strongest response.
REL_THRESHOLD = 0.01
#: A peak must exceed this response in any image; a flatter image has no keypoints.
ABS_THRESHOLD = 1e-10
#: Pixels within which a keypoint suppresses weaker ones, across scales.
NMS_RADIUS = 4.0
#: Keypoints an image keeps, strongest first.
MAX_KEYPOINTS = 2048
#: A match's best / second-best descriptor distance ratio may not exceed this.
MATCH_RATIO = 0.8


def column(width: int = 0):
    """A ``RowRecord`` field of shape (n, width), or (n,) when width is 0."""
    return field(metadata={"trailing": (width,) if width else ()})


@dataclass(frozen=True)
class RowRecord:
    """Row-aligned float64 arrays, one row per item; each field is a ``column``.

    Construction converts every field to float64, checks its shape, then
    checks that all fields have the same number of rows.  ``len`` is that
    row count; indexing by a slice, an index array or a boolean mask selects
    the same rows of every field.
    """

    def __post_init__(self) -> None:
        counts = {}
        for f in fields(self):
            array = np.asarray(getattr(self, f.name), dtype=np.float64)
            trailing = f.metadata["trailing"]
            if array.ndim != 1 + len(trailing) or array.shape[1:] != trailing:
                raise ValueError(f"{f.name} must have shape {('n', *trailing)}, got {array.shape}")
            object.__setattr__(self, f.name, array)
            counts[f.name] = array.shape[0]
        if len(set(counts.values())) > 1:
            listed = ", ".join(f"{count} {name}" for name, count in counts.items())
            raise ValueError(f"row counts differ: {listed}")

    @classmethod
    def empty(cls):
        return cls(*(np.zeros((0, *f.metadata["trailing"])) for f in fields(cls)))

    def __len__(self) -> int:
        return getattr(self, fields(self)[0].name).shape[0]

    def __getitem__(self, index):
        return type(self)(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass(frozen=True)
class Keypoints(RowRecord):
    """Detected interest points, one row per keypoint."""

    positions: np.ndarray = column(2)  # sub-pixel (u, v)
    scales: np.ndarray = column()  # blur sigma at which each corner was found
    scores: np.ndarray = column()  # normalized response in [0, 1]


@dataclass(frozen=True)
class Matches(RowRecord):
    """Query-to-reference pixel correspondences, one row per match."""

    query: np.ndarray = column(2)  # pixels in the query image
    ref: np.ndarray = column(2)  # pixels in the reference (rendered) image
    confidence: np.ndarray = column()  # in [0, 1]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not np.all((self.confidence >= 0.0) & (self.confidence <= 1.0)):
            raise ValueError("match confidence must lie in [0, 1]")


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
    # Imported here, its only use, so processes that never detect load no SciPy.
    from scipy.ndimage import gaussian_filter

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


@traced("features.detect_and_describe")
def detect_and_describe(image: np.ndarray) -> tuple[Keypoints, np.ndarray]:
    """Detect Harris keypoints and compute their descriptors.

    Returns keypoints sorted by descending score (ties broken by position)
    and an (N, 128) descriptor array aligned with the keypoint rows.
    """
    gray = to_grayscale(image)
    if min(gray.shape) < MIN_IMAGE_DIM:
        raise ValueError(
            f"image must be at least {MIN_IMAGE_DIM}px on each side, got {gray.shape}"
        )

    levels = [_harris_response(gray, sigma, HARRIS_K) for sigma in SCALES]
    global_max = max([0.0] + [float(resp.max(initial=0.0)) for _, _, resp in levels])
    if global_max <= ABS_THRESHOLD:
        return Keypoints.empty(), np.zeros((0, DESCRIPTOR_DIM))

    # Peaks of every scale, strongest first, ties by (v, u) then scale order.
    threshold = max(ABS_THRESHOLD, REL_THRESHOLD * global_max)
    peaks = [_peaks(resp, threshold) for _, _, resp in levels]
    u, v, resp = (np.concatenate(column) for column in zip(*peaks))
    positions = np.column_stack([u, v])
    level = np.repeat(np.arange(len(levels)), [len(p[0]) for p in peaks])
    scores = resp / global_max
    order = np.lexsort((u, v, -scores))

    # Greedy NMS across scales, then describe the survivors one scale at a time.
    kept = order[_suppress(positions[order], NMS_RADIUS, 4 * MAX_KEYPOINTS)]
    descriptors = np.zeros((len(kept), DESCRIPTOR_DIM))
    valid = np.zeros(len(kept), dtype=bool)
    for i, ((gx, gy, _), sigma) in enumerate(zip(levels, SCALES)):
        at = level[kept] == i
        descriptors[at], valid[at] = _describe(gx, gy, positions[kept[at]], sigma)

    # The first MAX_KEYPOINTS survivors whose window could be described.
    chosen = kept[valid][:MAX_KEYPOINTS]
    keypoints = Keypoints(
        positions=positions[chosen],
        scales=np.array(SCALES, dtype=np.float64)[level[chosen]],
        scores=scores[chosen],
    )
    return keypoints, descriptors[valid][:MAX_KEYPOINTS]


@traced("features.match_features")
def match_features(
    keypoints_a: Keypoints,
    descriptors_a: np.ndarray,
    keypoints_b: Keypoints,
    descriptors_b: np.ndarray,
) -> Matches:
    """Mutual nearest-neighbor matching with a two-sided ratio test.

    Side ``a`` is the query image, side ``b`` the reference.  Mutual nearest
    neighbors pair each keypoint with at most one other.  Confidence is 1
    minus the worse of the two directions' ratio, clamped to [0, 1], so the
    result is symmetric in its arguments (up to swapping pixel roles).
    Matches come ordered by descriptor distance, then by query keypoint.
    """
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

    keep = worst <= MATCH_RATIO
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


#: Pixels at the edge of a reference render that ``oracle_match`` never samples.
ORACLE_BORDER_MARGIN = 3


@dataclass(frozen=True)
class OracleConfig:
    """Controls for the ground-truth-driven match generator."""

    n: int = 150
    pixel_noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("oracle n must be >= 1")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1]")
        if not self.pixel_noise_sigma >= 0.0:  # NaN fails too
            raise ValueError(
                f"pixel_noise_sigma must be non-negative, got {self.pixel_noise_sigma}"
            )


@traced("features.oracle_match")
def oracle_match(
    query_pose_gt: Pose,
    ref_pose: Pose,
    ref_depth: np.ndarray,
    cam: CameraIntrinsics,
    config: OracleConfig,
    rng: np.random.Generator | None = None,
) -> tuple[Matches, np.ndarray]:
    """Manufacture correspondences from rendered depth and known poses.

    Samples up to ``config.n`` valid-depth reference pixels at least
    ``ORACLE_BORDER_MARGIN`` pixels from the image border, lifts them through
    the reference depth into world space, and projects them into the
    ground-truth query view.  Samples that fall outside the query image are
    dropped, so the returned count tracks the view overlap.  Gaussian pixel
    noise is added on the query side (clamped to the image), and a fixed
    fraction of the survivors is replaced by uniform random query pixels
    (outliers, confidence 0).

    Returns the matches and a boolean outlier mask aligned with them.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    m = ORACLE_BORDER_MARGIN
    valid = ref_depth > 0.0
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
