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

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import TrajectoryTooShort
from .geometry import CameraIntrinsics, Pose, Trajectory
from . import spans
from .renderer import (
    load_depth_f32, load_ppm_levels, render, save_depth, save_ppm_levels, to_levels,
)
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
    once it is at least `spacing` from the last kept one.  Gaps between
    consecutive anchors must stay within [0.5, 2] x spacing, which fails only
    when the input trajectory itself is sparser than the requested spacing.
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

    gaps = [
        float(np.linalg.norm(b[1].translation - a[1].translation))
        for a, b in zip(picked, picked[1:])
    ]
    for gap in gaps:
        if not (0.5 * spacing <= gap <= 2.0 * spacing):
            raise ValueError(
                f"anchor gap {gap:.3f} m outside [{0.5 * spacing}, {2.0 * spacing}]; "
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


def save_anchor_db(path: str | Path, db: AnchorDatabase) -> None:
    """Persist to a directory: index.json plus per-anchor PPM and depth files."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in db.records:
        rgb_name = f"anchor_{rec.anchor_id:03d}.ppm"
        depth_name = f"anchor_{rec.anchor_id:03d}.depth"
        save_ppm_levels(root / rgb_name, rec.rgb)
        save_depth(root / depth_name, rec.depth)
        entries.append(
            {
                "id": rec.anchor_id,
                "source_index": rec.source_index,
                "pose": [float(v) for v in rec.pose.as_array()],
                "rgb": rgb_name,
                "depth": depth_name,
                "descriptor": [float(v) for v in rec.descriptor],
            }
        )
    index = {
        "format": "anchordb v1",
        "spacing": db.spacing,
        "camera": asdict(db.camera),
        "anchors": entries,
    }
    (root / "index.json").write_text(json.dumps(index, sort_keys=True, indent=2) + "\n")


def _is_int(value: object) -> bool:
    return type(value) is int  # a JSON true or false is a bool, not an int


def _is_number(value: object) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _numbers(length: int) -> tuple:
    """The kind of a list of ``length`` finite numbers."""

    def test(value: object) -> bool:
        return isinstance(value, list) and len(value) == length and all(map(_is_number, value))

    return f"a list of {length} finite numbers", test


#: What a JSON value must be, as (description, test).
_INT = ("an integer", _is_int)
_NUMBER = ("a finite number", _is_number)
_FILE_NAME = ("a file name", lambda value: isinstance(value, str) and value != "")
_LIST = ("a list", lambda value: isinstance(value, list))

#: Keys of ``index.json``, of its camera and of each of its anchor entries,
#: with what each value must be.  The format tag and the camera object are
#: checked on their own.
_INDEX_KEYS = {"format": None, "spacing": _NUMBER, "camera": None, "anchors": _LIST}
_CAMERA_KEYS = {f.name: _INT if f.type == "int" else _NUMBER for f in fields(CameraIntrinsics)}
_ANCHOR_KEYS = {
    "id": _INT, "source_index": _INT, "pose": _numbers(7),
    "rgb": _FILE_NAME, "depth": _FILE_NAME, "descriptor": _numbers(GLOBAL_DESCRIPTOR_DIM),
}


def _check_object(root: Path, where: str, value: object, keys: dict) -> None:
    """Raise a ``ValueError`` naming ``root`` unless ``value`` is a JSON object
    whose keys are exactly those of ``keys`` and whose values are what
    ``keys`` says."""
    if not isinstance(value, dict):
        raise ValueError(f"{root}: {where} must be a JSON object")
    missing = [key for key in keys if key not in value]
    if missing:
        raise ValueError(f'{root}: {where} is missing "{missing[0]}"')
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f'{root}: {where} has unknown key "{unknown[0]}"')
    for key, kind in keys.items():
        if kind is not None and not kind[1](value[key]):
            got = json.dumps(value[key])
            got = got if len(got) <= 80 else got[:77] + "..."
            raise ValueError(f'{root}: {where} "{key}" must be {kind[0]}, got {got}')


def load_anchor_db(path: str | Path) -> AnchorDatabase:
    """Reload a directory written by ``save_anchor_db``.

    A malformed ``index.json`` (a missing or unknown key, a camera whose
    keys are not exactly the ``CameraIntrinsics`` fields, or a value of the
    wrong JSON type, such as ``"fx": "250"``) raises ``ValueError`` naming
    the directory and the key.
    """
    root = Path(path)
    index = json.loads((root / "index.json").read_text())
    fmt = index.get("format") if isinstance(index, dict) else None
    if fmt != "anchordb v1":
        raise ValueError(f"{root}: not an anchor database (format {fmt!r})")
    _check_object(root, "index.json", index, _INDEX_KEYS)
    _check_object(root, "camera", index["camera"], _CAMERA_KEYS)
    cam = CameraIntrinsics(**index["camera"])
    records = []
    for i, entry in enumerate(index["anchors"]):
        _check_object(root, f"anchor {i}", entry, _ANCHOR_KEYS)
        records.append(
            AnchorRecord(
                anchor_id=entry["id"],
                source_index=entry["source_index"],
                pose=Pose.from_array(np.array(entry["pose"])),
                rgb=load_ppm_levels(root / entry["rgb"]),
                depth=load_depth_f32(root / entry["depth"]),
                descriptor=np.array(entry["descriptor"]),
            )
        )
    records.sort(key=lambda r: r.anchor_id)
    return AnchorDatabase(camera=cam, spacing=index["spacing"], records=records)
