"""Anchor database: spaced keyframe renders used to coarse-localize queries.

Anchors are trajectory poses subsampled at a metric spacing; each stores its
rendered RGB, rendered depth, and a compact global appearance descriptor.
Retrieval ranks anchors by cosine similarity of that descriptor.

A record holds its images at the precision ``save_anchor_db`` writes: the
RGB as (H, W, 3) uint8 levels and the depth as (H, W) float32.  That is 7
bytes per pixel, 0.54 MB for a 320x240 anchor, against 32 bytes (2.46 MB)
as float64.  Save and load move those arrays to and from disk unchanged, so
a reloaded map equals the built one bit for bit.  Code that needs float
images divides the levels by 255.0 (``relocalize.ReferenceView.of_anchor``).

Map file layout (``anchordb v2``): one ASCII header line, then
little-endian values and nothing else:

    anchordb v2 <count> <width> <height>\\n
    <fx> <fy> <cx> <cy> <near> <spacing>             6 x <f8
then ``count`` records of
    <source_index>                                   1 x <i8
    <qw> <qx> <qy> <qz> <tx> <ty> <tz>               7 x <f8
    <descriptor>                                   192 x <f8
    <rgb levels>, row-major             height*width*3 x u1
    <depth>, row-major                    height*width x <f4

so exactly ``48 + count * (1600 + 7 * width * height)`` bytes follow the
header.  An anchor's id is its position in the file.

The 192-dim global descriptor concatenates an 8x8 block-mean grayscale
thumbnail (64 values) with a 128-bin gradient-orientation histogram, each
half L2-normalized before the joint normalization, so it is invariant to
uniform brightness scaling.

``build_anchor_db`` renders the anchors in worker processes, one per CPU the
process may run on (at most one per anchor).  Each anchor is rendered by the
same code as in a single process, so the map is byte-identical whatever the
worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import TrajectoryTooShort
from .geometry import CameraIntrinsics, Pose, Trajectory
from . import spans
from .renderer import render, to_levels
from .scene import SplatScene
from .features import to_grayscale

GLOBAL_DESCRIPTOR_DIM = 192
_THUMB = 8
_ORI_BINS = 128


def global_descriptor(image: np.ndarray) -> np.ndarray:
    """192-dim appearance fingerprint: thumbnail + orientation histogram."""
    gray = to_grayscale(image)
    H, W = gray.shape

    row_edges = np.linspace(0, H, _THUMB + 1).astype(int)
    col_edges = np.linspace(0, W, _THUMB + 1).astype(int)
    thumb = np.empty((_THUMB, _THUMB))
    for r in range(_THUMB):
        for c in range(_THUMB):
            block = gray[row_edges[r] : row_edges[r + 1], col_edges[c] : col_edges[c + 1]]
            thumb[r, c] = block.mean() if block.size else 0.0

    gy, gx = np.gradient(gray)
    mag = np.hypot(gx, gy).ravel()
    ori = np.arctan2(gy, gx).ravel()
    bins = np.floor((ori + np.pi) / (2.0 * np.pi) * _ORI_BINS).astype(int) % _ORI_BINS
    hist = np.bincount(bins, weights=mag, minlength=_ORI_BINS)

    def unit(vec: np.ndarray) -> np.ndarray:
        norm = float(np.linalg.norm(vec))
        return vec / norm if norm > 1e-12 else vec

    descriptor = np.concatenate([unit(thumb.ravel()), unit(hist)])
    return unit(descriptor)


@dataclass(frozen=True)
class AnchorRecord:
    """One keyframe: pose, stored render, and global descriptor.

    The arrays are checked once, here; a ``ValueError`` names the bad field.
    """

    anchor_id: int
    source_index: int  # originating trajectory frame index
    pose: Pose
    rgb: np.ndarray  # (H, W, 3) uint8 levels; the image is rgb / 255.0
    depth: np.ndarray  # (H, W) float32 meters; 0 marks sky
    descriptor: np.ndarray  # (192,), global_descriptor(rgb / 255.0)

    def __post_init__(self) -> None:
        rgb, depth, descriptor = self.rgb, self.depth, self.descriptor
        if not (_is_array(rgb, np.uint8) and rgb.ndim == 3 and rgb.shape[2] == 3):
            raise ValueError(f"rgb must be an (H, W, 3) uint8 array, got {_describe(rgb)}")
        size = rgb.shape[:2]
        if not (_is_array(depth, np.float32) and depth.shape == size):
            raise ValueError(f"depth must be a {size} float32 array, got {_describe(depth)}")
        if not (_is_array(descriptor) and descriptor.shape == (GLOBAL_DESCRIPTOR_DIM,)):
            want = f"({GLOBAL_DESCRIPTOR_DIM},)"
            raise ValueError(f"descriptor must be a {want} array, got {_describe(descriptor)}")
        if not np.isfinite(descriptor).all():
            raise ValueError("descriptor must be finite")


def _is_array(value: object, dtype: type | None = None) -> bool:
    return isinstance(value, np.ndarray) and (dtype is None or value.dtype == dtype)


def _describe(value: object) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype} array of shape {value.shape}"
    return type(value).__name__


@dataclass
class AnchorDatabase:
    """All anchors for one scene plus the camera they were rendered with."""

    camera: CameraIntrinsics
    spacing: float
    records: list[AnchorRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


def _quantize_record(
    anchor_id: int, source_index: int, pose: Pose, rgb: np.ndarray, depth: np.ndarray
) -> AnchorRecord:
    """Record of a float render, kept at its on-disk precision."""
    levels = to_levels(rgb)
    return AnchorRecord(
        anchor_id=anchor_id,
        source_index=source_index,
        pose=pose,
        rgb=levels,
        depth=depth.astype(np.float32),
        descriptor=global_descriptor(levels / 255.0),
    )


def build_anchor_db(
    scene: SplatScene,
    trajectory: Trajectory,
    cam: CameraIntrinsics,
    spacing: float,
) -> AnchorDatabase:
    """Subsample the trajectory at `spacing` meters and render each anchor.

    The first pose always becomes an anchor; each subsequent pose is kept
    once it is at least `spacing` from the last kept one, so no gap between
    consecutive anchors is shorter.  A gap above 2 x spacing is refused: the
    input trajectory is sparser than the requested spacing.
    The anchors render in ``min(CPUs, anchors)`` worker processes and come
    back in anchor order, with the bits of a render in this process.
    """
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"anchor spacing must be positive and finite, got {spacing}")
    if len(trajectory) == 0:
        raise TrajectoryTooShort("trajectory is empty")
    if trajectory.path_length() < spacing:
        raise TrajectoryTooShort(
            f"trajectory spans {trajectory.path_length():.3f} m < spacing {spacing} m"
        )

    picked: list[tuple[int, Pose]] = []
    last_t: np.ndarray | None = None
    for index, pose in trajectory:
        if last_t is None or float(np.linalg.norm(pose.translation - last_t)) >= spacing:
            picked.append((index, pose))
            last_t = pose.translation

    for (_, a), (_, b) in zip(picked, picked[1:]):
        gap = float(np.linalg.norm(b.translation - a.translation))
        if gap > 2.0 * spacing:
            raise ValueError(
                f"anchor gap {gap:.3f} m > {2.0 * spacing} m (2 x spacing); "
                "trajectory is too sparse for the requested spacing"
            )

    # Under fork the workers share the scene copy-on-write; nothing is pickled.
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    workers = min(_available_cpus(), len(picked))
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=context, initializer=_init_worker, initargs=(scene, cam)
    ) as pool:
        results = list(pool.map(_render_anchor, range(len(picked)), picked))
    for _, worker_spans in results:
        spans.extend(worker_spans)
    return AnchorDatabase(camera=cam, spacing=spacing, records=[rec for rec, _ in results])


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_worker_inputs: tuple[SplatScene, CameraIntrinsics] | None = None


def _init_worker(scene: SplatScene, cam: CameraIntrinsics) -> None:
    """Runs once in each worker: keep what every anchor is rendered from."""
    global _worker_inputs
    _worker_inputs = (scene, cam)


def _render_anchor(
    anchor_id: int, frame: tuple[int, Pose]
) -> tuple[AnchorRecord, list[spans.Span]]:
    """One anchor's finished record, plus the spans recorded while rendering it."""
    index, pose = frame
    scene, cam = _worker_inputs
    with spans.recording() as recorded:
        out = render(scene, pose, cam)
    return _quantize_record(anchor_id, index, pose, out.rgb, out.depth), recorded


def retrieve(query_image: np.ndarray, db: AnchorDatabase) -> int:
    """Anchor id with the highest descriptor cosine similarity (ties: lowest id).

    The query must be a float image in [0, 1], like a render or ``load_ppm``;
    8-bit levels (``rec.rgb``, not ``rec.rgb / 255.0``) or NaN raise.
    """
    if not db.records:
        raise ValueError("anchor database is empty")
    if not (
        np.issubdtype(query_image.dtype, np.floating)
        and np.all((query_image >= 0) & (query_image <= 1))
    ):
        raise ValueError(
            f"query image must be floating point in [0, 1], got {query_image.dtype} "
            f"in [{np.min(query_image)}, {np.max(query_image)}]"
        )
    q = global_descriptor(query_image)
    sims = np.array([float(q @ rec.descriptor) for rec in db.records])
    return int(np.argmax(sims))


_MAGIC = b"anchordb v2"
#: Bytes of the camera block: fx, fy, cx, cy, near and spacing as ``<f8``.
_CAMERA_BYTES = 6 * 8
#: Bytes of a record before its images: source index, pose and descriptor.
_RECORD_HEAD_BYTES = 8 * (1 + 7 + GLOBAL_DESCRIPTOR_DIM)


def save_anchor_db(path: str | Path, db: AnchorDatabase) -> None:
    """Write the map as one ``anchordb v2`` file (module docstring)."""
    cam = db.camera
    for rec in db.records:
        if rec.rgb.shape[:2] != (cam.height, cam.width):
            raise ValueError(
                f"anchor {rec.anchor_id} is {rec.rgb.shape[1]}x{rec.rgb.shape[0]}, "
                f"the camera {cam.width}x{cam.height}"
            )
    with open(path, "wb") as f:
        f.write(_MAGIC + f" {len(db)} {cam.width} {cam.height}\n".encode())
        f.write(np.array([cam.fx, cam.fy, cam.cx, cam.cy, cam.near, db.spacing], "<f8").tobytes())
        for rec in db.records:
            f.write(np.array(rec.source_index, "<i8").tobytes())
            f.write(np.concatenate([rec.pose.as_array(), rec.descriptor]).astype("<f8").tobytes())
            f.write(rec.rgb.tobytes())
            f.write(rec.depth.astype("<f4").tobytes())


def load_anchor_db(path: str | Path) -> AnchorDatabase:
    """Read an ``anchordb v2`` file written by ``save_anchor_db``.

    The header must be ``anchordb v2 <count> <width> <height>`` and the rest
    exactly the camera block and ``count`` records.  The camera, the spacing
    (positive and finite), each pose and each descriptor (finite) are
    checked; a ``ValueError`` names the file and, for a record, its index.
    Anchor ids are record positions.  The arrays are read into memory, so
    the map does not depend on the file after the load.  An ``anchordb v1``
    directory is refused: maps are derived data, so rebuild it.
    """
    if Path(path).is_dir():
        raise ValueError(
            f"{path}: a directory, as anchordb v1 maps were; "
            "rebuild it with `splatreloc build-anchors`"
        )
    with open(path, "rb") as f:
        head, newline, _ = f.read(128).partition(b"\n")
        words = head.split(b" ")
        if not newline or b" ".join(words[:2]) != _MAGIC:
            raise ValueError(f"{path}: not an anchordb v2 file (header {head[:40]!r})")
        if len(words) != 5 or not all(word.isdigit() for word in words[2:]):
            raise ValueError(
                f"{path}: bad header {head!r}, expected b'anchordb v2 <count> <width> <height>'"
            )
        count, width, height = map(int, words[2:])
        size = _CAMERA_BYTES + count * (_RECORD_HEAD_BYTES + 7 * width * height)
        found = os.fstat(f.fileno()).st_size - len(head) - 1
        if found != size:
            raise ValueError(
                f"{path}: header promises {count} anchors of {width}x{height} "
                f"({size} bytes after the header), found {found} bytes"
            )
        f.seek(len(head) + 1)
        fx, fy, cx, cy, near, spacing = np.fromfile(f, "<f8", 6).tolist()
        try:
            cam = CameraIntrinsics(fx, fy, cx, cy, width, height, near)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not (math.isfinite(spacing) and spacing > 0):
            raise ValueError(f"{path}: anchor spacing must be positive and finite, got {spacing}")
        records = []
        for i in range(count):
            source_index = int(np.fromfile(f, "<i8", 1)[0])
            pose = np.fromfile(f, "<f8", 7)
            descriptor = np.fromfile(f, "<f8", GLOBAL_DESCRIPTOR_DIM)
            rgb = np.fromfile(f, np.uint8, height * width * 3).reshape(height, width, 3)
            depth = np.fromfile(f, "<f4", height * width).reshape(height, width)
            try:
                records.append(
                    AnchorRecord(
                        anchor_id=i,
                        source_index=source_index,
                        pose=Pose.from_array(pose),
                        rgb=rgb,
                        depth=depth.astype(np.float32, copy=False),
                        descriptor=descriptor,
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}: anchor {i}: {exc}") from None
    return AnchorDatabase(camera=cam, spacing=spacing, records=records)
