"""Gaussian splat scenes: container types, file format, synthetic generation.

Scene file layout (``gsplat v2``): one ASCII header line, then
little-endian float64 (``<f8``) values and nothing else:

    gsplat v2 <count>\\n
    <r> <g> <b>                                                    sky color
    <mx> <my> <mz> <qw> <qx> <qy> <qz> <sx> <sy> <sz> <opacity> <r> <g> <b>
    ...                                                  count records of 14

Each record holds the Gaussian mean (m), orientation quaternion (q, wxyz),
per-axis standard deviations (s, meters), opacity in (0, 1], and RGB color in
[0, 1].  float64 keeps every bit of the arrays, so loading maps the file
with one ``np.memmap`` and parses nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SplatFormatError
from .geometry import _QUAT_NORM_EPS, CameraIntrinsics, Pose, Trajectory, look_at

#: Camera used by the synthetic generator's visibility guarantee and by the
#: command-line defaults: QVGA pinhole with a ~65 degree horizontal FOV.
DEFAULT_CAMERA = CameraIntrinsics(fx=250.0, fy=250.0, cx=160.0, cy=120.0, width=320, height=240)


#: Per-Gaussian arrays of a scene, in file-record order, with their widths
#: (None for one value per Gaussian).
_ARRAY_WIDTHS = {"means": 3, "quats": 4, "scales": 3, "opacities": None, "colors": 3}
#: Values in one file record: the widths above, one for each None.
RECORD_FIELDS = sum(width or 1 for width in _ARRAY_WIDTHS.values())
_FILE_DTYPE = np.dtype("<f8")
_MAGIC = b"gsplat v2"


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
    """Write a scene in the ``gsplat v2`` binary format (module docstring)."""
    records = np.column_stack(list(scene.arrays().values()))
    with open(path, "wb") as f:
        f.write(_MAGIC + f" {len(scene)}\n".encode())
        f.write(scene.sky_color.astype(_FILE_DTYPE).tobytes())
        f.write(records.astype(_FILE_DTYPE).tobytes())


def _scene_of_records(records: np.ndarray, sky: np.ndarray, path: str | Path) -> SplatScene:
    """Scene from (n, 14) file records; a broken rule becomes a format error."""
    columns, start = {}, 0
    for name, width in _ARRAY_WIDTHS.items():
        columns[name] = records[:, start] if width is None else records[:, start : start + width]
        start += width or 1
    try:
        return SplatScene(**columns, sky_color=sky)
    except ValueError as exc:
        raise SplatFormatError(f"{path}: {exc}") from None


def load_splat_scene(path: str | Path) -> SplatScene:
    """Read a ``gsplat v2`` scene file, validating every record.

    The header must be ``gsplat v2 <count>`` and the rest exactly the sky and
    ``count`` records.  The values are validated once by ``SplatScene``; a
    ``SplatFormatError`` names the file's first fault, for a record as
    ``record i: ...``.  A ``gsplat v1`` text file is refused: README.md
    (*File formats*) shows how to convert one.
    """
    with open(path, "rb") as f:
        start = f.read(64)
        if start.split()[:2] == [b"gsplat", b"v1"]:
            raise SplatFormatError(
                f"{path}: a gsplat v1 text scene; convert it to gsplat v2 as README.md "
                "(File formats) shows"
            )
        head, newline, _ = start.partition(b"\n")
        magic, _, count_text = head.rpartition(b" ")
        if not newline or magic != _MAGIC:
            raise SplatFormatError(f"{path}: bad header {head!r}")
        if not count_text.isdigit():
            raise SplatFormatError(
                f"{path}: bad header count {count_text.decode(errors='replace')!r}"
            )
        count = int(count_text)
        n_values = 3 + RECORD_FIELDS * count
        size = _FILE_DTYPE.itemsize * n_values
        found = os.fstat(f.fileno()).st_size - len(head) - 1
        if found != size:
            raise SplatFormatError(
                f"{path}: header promises {count} records ({size} bytes after the header), "
                f"found {found} bytes"
            )
        # A mapped view, not a read copy: freeing a multi-MB read buffer makes
        # glibc serve later allocations of that size from the heap, which
        # raised map-build peak RSS by about 4 MB.
        values = np.memmap(
            f, dtype=_FILE_DTYPE, mode="r", offset=len(head) + 1, shape=(n_values,)
        )
    return _scene_of_records(values[3:].reshape(count, RECORD_FIELDS), values[:3], path)


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
    the cloud center.  Each pose must keep at least min(50, n) Gaussians
    inside the default camera frustum; a draw where one does not raises
    ``ValueError``.
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
            raise ValueError(
                f"synthetic pose {idx} sees only {visible} Gaussians (< {required})"
            )
    return scene, trajectory
