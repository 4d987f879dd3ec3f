"""Gaussian splat scenes: container types, file format, synthetic generation.

Scene file layout (ASCII, whitespace separated):

    gsplat v1 <count>
    sky <r> <g> <b>
    <mx> <my> <mz> <qw> <qx> <qy> <qz> <sx> <sy> <sz> <opacity> <r> <g> <b>
    ...

The ``sky`` line is optional and defaults to black.  Each record holds the
Gaussian mean (m), orientation quaternion (q, wxyz), per-axis standard
deviations (s, meters), opacity in (0, 1], and RGB color in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SplatFormatError
from .geometry import _QUAT_NORM_EPS, CameraIntrinsics, Pose, Trajectory, look_at

RECORD_FIELDS = 14

#: Camera used by the synthetic generator's visibility guarantee and by the
#: command-line defaults: QVGA pinhole with a ~65 degree horizontal FOV.
DEFAULT_CAMERA = CameraIntrinsics(fx=250.0, fy=250.0, cx=160.0, cy=120.0, width=320, height=240)


#: Per-Gaussian arrays of a scene, in file-record order, with their widths
#: (None for one value per Gaussian).
_ARRAY_WIDTHS = {"means": 3, "quats": 4, "scales": 3, "opacities": None, "colors": 3}


def _first_fault(
    means: np.ndarray,
    quats: np.ndarray,
    scales: np.ndarray,
    opacities: np.ndarray,
    colors: np.ndarray,
    quat_norms: np.ndarray,
) -> str | None:
    """``"record i: <rule>"`` for the first Gaussian that breaks a rule, else None.

    The rules are listed in the order one record is checked, so a record
    that breaks several reports the first of them.
    """
    finite = (
        np.isfinite(means).all(axis=1)
        & np.isfinite(quats).all(axis=1)
        & np.isfinite(scales).all(axis=1)
        & np.isfinite(opacities)
        & np.isfinite(colors).all(axis=1)
    )
    rules = (
        (~finite, "non-finite value"),
        ((scales <= 0.0).any(axis=1), "scale must be positive"),
        (~((opacities > 0.0) & (opacities <= 1.0)), "opacity must lie in (0, 1]"),
        (((colors < 0.0) | (colors > 1.0)).any(axis=1), "color must lie in [0, 1]"),
        (~np.isfinite(quat_norms), "quaternion must be finite"),
        (quat_norms < _QUAT_NORM_EPS, "quaternion has near-zero norm"),
    )
    broken = np.logical_or.reduce([mask for mask, _ in rules])
    if not broken.any():
        return None
    i = int(np.argmax(broken))
    return f"record {i}: " + next(rule for mask, rule in rules if mask[i])


@dataclass(frozen=True, eq=False)
class SplatScene:
    """Gaussian primitives as five read-only arrays, plus a background sky color.

    Row i of each array describes Gaussian i: ``means (n, 3)`` world
    positions, ``quats (n, 4)`` wxyz orientations, ``scales (n, 3)`` per-axis
    standard deviations in meters (> 0), ``opacities (n,)`` in (0, 1] and
    ``colors (n, 3)`` RGB in [0, 1].  Construction copies the arrays,
    validates them in one vectorized pass (all values finite, plus the ranges
    above), normalizes each quaternion to unit norm with w >= 0, and makes
    every array read-only: a changed scene is a new ``SplatScene``.  A
    ``ValueError`` names the first bad Gaussian as ``record i``.
    """

    means: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    quats: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    scales: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    opacities: np.ndarray = field(default_factory=lambda: np.zeros(0))
    colors: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    sky_color: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        sky = np.array(self.sky_color, dtype=np.float64).reshape(3)
        if not np.all((sky >= 0.0) & (sky <= 1.0)):
            raise ValueError("sky color must lie in [0, 1]")
        arrays = {name: np.array(getattr(self, name), dtype=np.float64) for name in _ARRAY_WIDTHS}
        n = arrays["opacities"].size
        for name, width in _ARRAY_WIDTHS.items():
            shape = (n,) if width is None else (n, width)
            if arrays[name].shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arrays[name].shape}")

        quats = arrays["quats"]
        # One BLAS dot per row, the sum np.linalg.norm takes for a single
        # quaternion (geometry.quat_normalize); an axis reduction such as
        # (q * q).sum(1) rounds differently in the last bit on ~12% of rows.
        norms = np.sqrt((quats[:, None, :] @ quats[:, :, None]).reshape(n))
        fault = _first_fault(**arrays, quat_norms=norms)
        if fault is not None:
            raise ValueError(fault)
        quats = quats / norms[:, None]
        arrays["quats"] = np.where(quats[:, :1] < 0.0, -quats, quats)

        sky.flags.writeable = False
        object.__setattr__(self, "sky_color", sky)
        for name, values in arrays.items():
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return len(self.opacities)

    def arrays(self) -> dict[str, np.ndarray]:
        """The five per-Gaussian arrays by name, in file-record order (not copies)."""
        return {name: getattr(self, name) for name in _ARRAY_WIDTHS}


def save_splat_scene(path: str | Path, scene: SplatScene) -> None:
    """Write a scene in the ``gsplat v1`` ASCII format."""
    records = np.column_stack(list(scene.arrays().values()))
    lines = [f"gsplat v1 {len(scene)}"]
    lines.append("sky " + " ".join(repr(float(v)) for v in scene.sky_color))
    lines.extend(" ".join(map(repr, record)) for record in records.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def _scene_of_records(records: np.ndarray, sky: np.ndarray, path: str | Path) -> SplatScene:
    """Scene from (n, 14) file records; a broken rule becomes a format error."""
    try:
        return SplatScene(
            records[:, 0:3], records[:, 3:7], records[:, 7:10], records[:, 10], records[:, 11:14], sky
        )
    except ValueError as exc:
        raise SplatFormatError(f"{path}: {exc}") from None


def _parse_lines(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Sky and (count, 14) records of a scene file.

    The records are parsed in one ``np.loadtxt`` call.  When that fails, or
    does not give ``count`` rows of 14 values, they are parsed one record at
    a time, which raises the ``SplatFormatError`` that names the file's first
    fault and accepts every number spelling ``float`` does (such as ``1_0``).
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise SplatFormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "gsplat" or header[1] != "v1":
        raise SplatFormatError(f"{path}: bad header {lines[0]!r}")
    try:
        count = int(header[2])
    except ValueError:
        raise SplatFormatError(f"{path}: bad header count {header[2]!r}") from None
    if count < 0:
        raise SplatFormatError(f"{path}: negative count in header")

    body = lines[1:]
    sky = np.zeros(3)
    if body and body[0].split()[0] == "sky":
        sky_fields = body[0].split()[1:]
        if len(sky_fields) != 3:
            raise SplatFormatError(f"{path}: sky line must have 3 components")
        try:
            sky = np.array([float(f) for f in sky_fields])
        except ValueError as exc:
            raise SplatFormatError(f"{path}: sky line: {exc}") from None
        if not np.all(np.isfinite(sky)) or np.any(sky < 0.0) or np.any(sky > 1.0):
            raise SplatFormatError(f"{path}: sky color must lie in [0, 1]")
        body = body[1:]

    if len(body) != count:
        raise SplatFormatError(f"{path}: header promises {count} records, found {len(body)}")
    if count > 0:
        try:
            records = np.loadtxt(body, comments=None, ndmin=2)
        except ValueError:
            records = None
        if records is not None and records.shape == (count, RECORD_FIELDS):
            return sky, records
    rows: list[list[float]] = []
    for i, line in enumerate(body):
        fields = line.split()
        try:
            if len(fields) != RECORD_FIELDS:
                raise ValueError(f"expected {RECORD_FIELDS} fields, got {len(fields)}")
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            # A rule broken by an earlier record is that record's fault, reported first.
            _scene_of_records(np.array(rows).reshape(-1, RECORD_FIELDS), sky, path)
            raise SplatFormatError(f"{path}: record {i}: {exc}") from None
    return sky, np.array(rows).reshape(-1, RECORD_FIELDS)


def load_splat_scene(path: str | Path) -> SplatScene:
    """Read a ``gsplat v1`` scene file, validating every record.

    The records are parsed in one pass and validated once by ``SplatScene``;
    a ``SplatFormatError`` names the file's first fault, for a record as
    ``record i: ...``.
    """
    sky, records = _parse_lines(path)
    return _scene_of_records(records, sky, path)


@dataclass(frozen=True)
class SyntheticSceneConfig:
    """Parameters for the random scene / trajectory generator."""

    n_gaussians: int = 4000
    extent: float = 5.0  # half-width of the cube holding the Gaussian means
    trajectory_length: float = 12.0  # metric length of the camera path
    anchor_spacing: float = 3.0  # target spacing for downstream anchor maps

    def __post_init__(self) -> None:
        if self.n_gaussians < 1:
            raise ValueError("n_gaussians must be >= 1")
        if self.extent <= 0 or self.trajectory_length <= 0 or self.anchor_spacing <= 0:
            raise ValueError("extent, trajectory_length, anchor_spacing must be positive")


#: Generator bounds shared with tests: opacity and per-axis scale ranges.
OPACITY_RANGE = (0.5, 1.0)
SCALE_RANGE = (0.05, 0.5)
_MIN_VISIBLE = 50


def _count_in_frustum(means: np.ndarray, pose: Pose, cam: CameraIntrinsics) -> int:
    """Number of means with positive depth that project inside the image."""
    R = pose.rotation_matrix()
    pts_cam = (means - pose.translation) @ R
    z = pts_cam[:, 2]
    front = z > cam.near
    if not np.any(front):
        return 0
    uv = cam.project(pts_cam[front])
    return int(np.count_nonzero(cam.contains(uv)))


def generate_synthetic_scene(
    seed: int, config: SyntheticSceneConfig | None = None
) -> tuple[SplatScene, Trajectory]:
    """Deterministic random scene plus a ground-truth camera trajectory.

    Gaussian means are uniform inside the +/- extent cube around the origin;
    opacities lie in [0.5, 1.0] and per-axis scales in [0.05, 0.5] m.  The
    camera path is a straight line offset from the cloud, every pose aimed at
    the cloud center, so each pose keeps at least min(50, n) Gaussians inside
    the default camera frustum.
    """
    config = config or SyntheticSceneConfig()
    rng = np.random.default_rng(seed)

    n = config.n_gaussians
    means = rng.uniform(-config.extent, config.extent, size=(n, 3))
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    scales = rng.uniform(SCALE_RANGE[0], SCALE_RANGE[1], size=(n, 3))
    opacities = rng.uniform(OPACITY_RANGE[0], OPACITY_RANGE[1], size=n)
    colors = rng.uniform(0.0, 1.0, size=(n, 3))
    sky = rng.uniform(0.0, 1.0, size=3)

    scene = SplatScene(means, quats, scales, opacities, colors, sky)

    # Straight path parallel to x at a stand-off distance, each pose looking at
    # the cloud center.  The stand-off keeps the whole cube in front of the
    # near plane from every pose while staying close enough that visible
    # depths span a wide range, which keeps pose solving well conditioned.
    standoff = 1.6 * config.extent
    step = config.anchor_spacing / 6.0
    n_poses = max(2, int(round(config.trajectory_length / step)) + 1)
    xs = np.linspace(-config.trajectory_length / 2.0, config.trajectory_length / 2.0, n_poses)
    trajectory = Trajectory()
    for i, x in enumerate(xs):
        pose = look_at(np.array([x, 0.0, -standoff]), np.zeros(3))
        trajectory.append(i, pose)

    required = min(_MIN_VISIBLE, n)
    for idx, pose in trajectory:
        visible = _count_in_frustum(means, pose, DEFAULT_CAMERA)
        if visible < required:
            raise RuntimeError(
                f"synthetic pose {idx} sees only {visible} Gaussians (< {required})"
            )
    return scene, trajectory
