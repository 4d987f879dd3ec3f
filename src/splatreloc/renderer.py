"""CPU rasterizer for Gaussian splat scenes.

Projection follows the EWA splatting recipe: the world covariance
R diag(s^2) R^T is rotated into the camera frame and pushed through the
pinhole Jacobian

    J = [[fx/z, 0, -fx*x/z^2],
         [0, fy/z, -fy*y/z^2]],

giving a 2x2 screen-space covariance, regularized by +0.3 px^2 on the
diagonal.  Compositing walks Gaussians front to back, accumulating

    C += c_i * alpha_i * T,   T *= (1 - alpha_i),

and finishes with sky blending rgb = C + (1 - O) * sky.  The depth channel is
the alpha-weighted mean of the contributing Gaussians' center depths,
normalized by accumulated opacity, and is only marked valid where the
accumulated opacity reaches 0.5 (zero elsewhere, meaning "sky").

Each Gaussian is evaluated only on its tight box, |dx| <= 3 sqrt(a) + 1 and
|dy| <= 3 sqrt(c) + 1 for covariance [[a, b], [b, c]], inside the square box
of its larger eigenvalue; every pixel outside it has Mahalanobis distance
above 3 sigma, so it would receive exactly zero.  A Gaussian is skipped when
every pixel of its *square* box has transmittance below the floor.  The test
stays on the square box: a Gaussian whose tight box is dead but whose square
box is not still adds tiny amounts to those dead pixels, and skipping it
would change the output bits.  One planar (5, H, W) accumulator
holds r, g, b, opacity and the depth sum, so each Gaussian adds its weight
times (r, g, b, 1, z) in one operation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ImageFormatError
from .geometry import CameraIntrinsics, Pose, quat_to_matrix
from .scene import SplatScene
from .spans import traced

#: Diagonal regularization added to every screen-space covariance (px^2).
COV2D_REGULARIZATION = 0.3
#: Gaussians are cut off beyond 3 sigma of screen-space extent.
EXTENT_SIGMA = 3.0
#: A Gaussian is skipped when every pixel of its square box has transmittance
#: below this; compositing itself never stops per pixel (module docstring).
TRANSMITTANCE_FLOOR = 1e-4
#: Accumulated opacity needed before the depth channel counts as valid.
DEPTH_VALID_OPACITY = 0.5
#: Gaussians whose per-Gaussian values become Python scalars at a time.
_SCALAR_CHUNK = 512


@dataclass
class RenderOutput:
    """Rasterized RGB, depth, and accumulated-opacity images."""

    rgb: np.ndarray  # (H, W, 3) in [0, 1]
    depth: np.ndarray  # (H, W) meters; 0 where sky / low opacity
    opacity: np.ndarray  # (H, W) accumulated alpha in [0, 1]


def _world_covariances(quats: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """(N, 3, 3) world-frame covariances R diag(s^2) R^T of unit-quaternion Gaussians."""
    RS = quat_to_matrix(quats) * scales[:, None, :]  # R @ diag(s)
    return RS @ np.transpose(RS, (0, 2, 1))


def _project_arrays(
    means: np.ndarray,
    quats: np.ndarray,
    scales: np.ndarray,
    pose: Pose,
    cam: CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Project all Gaussians; returns (keep_mask, mean2d, cov2d, depth, radius).

    Culls Gaussians behind the near plane and those whose 3-sigma screen
    extent misses the image entirely.  Entries for culled Gaussians are
    undefined and must be ignored via the mask.
    """
    n = means.shape[0]
    if n == 0:
        empty = np.zeros(0)
        return np.zeros(0, dtype=bool), np.zeros((0, 2)), np.zeros((0, 2, 2)), empty, empty

    R_c2w = pose.rotation_matrix()
    pts_cam = (means - pose.translation) @ R_c2w  # row-wise R^T (p - t)
    z = pts_cam[:, 2]
    keep = z > cam.near

    z_safe = np.where(keep, z, 1.0)
    inv_z = 1.0 / z_safe
    u = cam.fx * pts_cam[:, 0] * inv_z + cam.cx
    v = cam.fy * pts_cam[:, 1] * inv_z + cam.cy
    mean2d = np.column_stack([u, v])

    # World covariance rotated into the camera frame.
    cov_world = _world_covariances(quats, scales)
    Rwc = R_c2w.T
    cov_cam = np.einsum("ij,njk,lk->nil", Rwc, cov_world, Rwc)

    J = np.zeros((n, 2, 3))
    J[:, 0, 0] = cam.fx * inv_z
    J[:, 0, 2] = -cam.fx * pts_cam[:, 0] * inv_z**2
    J[:, 1, 1] = cam.fy * inv_z
    J[:, 1, 2] = -cam.fy * pts_cam[:, 1] * inv_z**2
    cov2d = J @ cov_cam @ np.transpose(J, (0, 2, 1))
    cov2d[:, 0, 0] += COV2D_REGULARIZATION
    cov2d[:, 1, 1] += COV2D_REGULARIZATION

    # 3-sigma radius from the larger eigenvalue of the 2x2 covariance.
    a, b, c = cov2d[:, 0, 0], cov2d[:, 0, 1], cov2d[:, 1, 1]
    mid = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(mid**2 - (a * c - b**2), 0.0))
    radius = EXTENT_SIGMA * np.sqrt(np.maximum(mid + disc, 1e-12))

    keep &= (u + radius >= 0.0) & (u - radius <= cam.width - 1)
    keep &= (v + radius >= 0.0) & (v - radius <= cam.height - 1)
    return keep, mean2d, cov2d, z, radius


@traced("renderer.render")
def render(scene: SplatScene, pose: Pose, cam: CameraIntrinsics) -> RenderOutput:
    """Rasterize the scene from `pose` into RGB, depth, and opacity images."""
    H, W = cam.height, cam.width
    # Planes r, g, b, opacity and depth_sum, each Gaussian adding weight times
    # its feature row (r, g, b, 1, z): weight * 1.0 and weight * z are the bits
    # of separate opacity and depth accumulators.
    acc = np.zeros((5, H, W))
    trans = np.ones((H, W))

    keep, mean2d, cov2d, z, radius = _project_arrays(
        scene.means, scene.quats, scene.scales, pose, cam
    )
    idx = np.flatnonzero(keep)
    if idx.size:
        # Front-to-back order with a content-based tie break so the output is
        # independent of the order Gaussians appear in the scene arrays.
        m = scene.means[idx]
        order = np.lexsort((m[:, 0], m[:, 1], m[:, 2], z[idx]))
        idx = idx[order]

    cutoff_q = EXTENT_SIGMA**2
    for start in range(0, idx.size, _SCALAR_CHUNK):
        rows = idx[start : start + _SCALAR_CHUNK]
        cx, cy, r = mean2d[rows, 0], mean2d[rows, 1], radius[rows]
        a, b, c = cov2d[rows, 0, 0], cov2d[rows, 0, 1], cov2d[rows, 1, 1]
        det = a * c - b * b
        # Square 3-sigma box of the larger eigenvalue, clipped to the image.
        x0 = np.clip(np.floor(cx - r), 0, W)
        x1 = np.clip(np.ceil(cx + r) + 1, 0, W)
        y0 = np.clip(np.floor(cy - r), 0, H)
        y1 = np.clip(np.ceil(cy + r) + 1, 0, H)
        # Tight box: the minimum of q over dy is dx^2 / a (over dx, dy^2 / c),
        # so a pixel with |dx| > 3 sqrt(a) or |dy| > 3 sqrt(c) has q > 9 and
        # g = 0; skipping it changes no bit.  The 1 px margin covers rounding.
        rx = EXTENT_SIGMA * np.sqrt(a) + 1.0
        ry = EXTENT_SIGMA * np.sqrt(c) + 1.0
        tx0 = np.maximum(np.floor(cx - rx), x0)
        tx1 = np.minimum(np.ceil(cx + rx) + 1, x1)
        ty0 = np.maximum(np.floor(cy - ry), y0)
        ty1 = np.minimum(np.ceil(cy + ry) + 1, y1)
        live = (tx0 < tx1) & (ty0 < ty1) & (det > 0.0)
        boxes = np.stack([x0, x1, y0, y1, tx0, tx1, ty0, ty1])[:, live].astype(np.int64)
        conics = np.stack([cx, cy, a, 2.0 * b, c, det, scene.opacities[rows]])[:, live]
        feats = np.column_stack([scene.colors[rows], np.ones(rows.size), z[rows]])[live]
        for (x0, x1, y0, y1, tx0, tx1, ty0, ty1), (cx, cy, a, b2, c, det, o), f in zip(
            boxes.T.tolist(), conics.T.tolist(), feats
        ):
            # Skip test on the square box, not the tight one (module docstring).
            if trans[y0:y1, x0:x1].max() < TRANSMITTANCE_FLOOR:
                continue
            dx = np.arange(tx0, tx1) - cx
            dy = np.arange(ty0, ty1) - cy
            # Mahalanobis distance via the inverse covariance (c, -b, a)/det,
            # as (c dx^2 - (2b dy) dx) + a dy^2, then / det.
            q = np.multiply.outer(b2 * dy, dx)
            np.subtract(c * dx**2, q, out=q)
            q += (a * dy**2)[:, None]
            q /= det
            alpha = np.multiply(q, -0.5)
            np.exp(alpha, out=alpha)
            alpha[q > cutoff_q] = 0.0
            alpha *= o
            T_patch = trans[ty0:ty1, tx0:tx1]
            acc[:, ty0:ty1, tx0:tx1] += (alpha * T_patch) * f[:, None, None]
            np.subtract(1.0, alpha, out=alpha)
            T_patch *= alpha

    opacity = acc[3].copy()
    acc[:3] += (1.0 - opacity) * scene.sky_color[:, None, None]
    rgb = np.empty((H, W, 3))
    np.clip(acc[:3], 0.0, 1.0, out=np.moveaxis(rgb, 2, 0))
    depth = np.zeros((H, W))
    np.divide(acc[4], opacity, out=depth, where=opacity >= DEPTH_VALID_OPACITY)
    return RenderOutput(rgb=rgb, depth=depth, opacity=opacity)


def to_levels(image: np.ndarray) -> np.ndarray:
    """8-bit levels of an RGB float image in [0, 1]: rounded, clipped, uint8."""
    return np.clip(np.round(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)


def save_ppm_levels(path: str | Path, levels: np.ndarray) -> None:
    """Write (H, W, 3) uint8 levels as a binary P6 PPM."""
    levels = np.asarray(levels)
    if levels.ndim != 3 or levels.shape[2] != 3:
        raise ValueError("expected an (H, W, 3) image")
    if levels.dtype != np.uint8:
        raise ValueError(f"expected uint8 levels, got {levels.dtype}")
    header = f"P6\n{levels.shape[1]} {levels.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + levels.tobytes())


def save_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write an RGB float image in [0, 1] as a binary P6 PPM (8-bit)."""
    save_ppm_levels(path, to_levels(image))


def load_ppm_levels(path: str | Path) -> np.ndarray:
    """Read a binary P6 PPM into (H, W, 3) uint8 levels."""
    raw = Path(path).read_bytes()
    tokens: list[bytes] = []
    pos = 0
    # Header: magic, width, height, maxval; '#' starts a comment to end of line.
    while len(tokens) < 4 and pos < len(raw):
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if pos > start:
            tokens.append(raw[start:pos])
    if len(tokens) < 4 or tokens[0] != b"P6":
        raise ImageFormatError(f"{path}: not a binary P6 PPM")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ImageFormatError(f"{path}: malformed PPM header") from None
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"{path}: bad PPM dimensions ({width}x{height})")
    if maxval != 255:
        raise ImageFormatError(f"{path}: only maxval 255 is supported")
    pos += 1  # single whitespace after maxval
    expected = width * height * 3
    data = raw[pos : pos + expected]
    if len(data) != expected:
        raise ImageFormatError(f"{path}: truncated pixel data")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)


def load_ppm(path: str | Path) -> np.ndarray:
    """Read a binary P6 PPM into an (H, W, 3) float image in [0, 1]."""
    return load_ppm_levels(path) / 255.0


def save_depth(path: str | Path, depth: np.ndarray) -> None:
    """Write a depth image as '<w><h><1>' int32 header + float32 data, LE."""
    depth = np.asarray(depth)
    if depth.ndim != 2:
        raise ValueError("expected an (H, W) depth image")
    header = struct.pack("<iii", depth.shape[1], depth.shape[0], 1)
    Path(path).write_bytes(header + depth.astype("<f4").tobytes())


def load_depth_f32(path: str | Path) -> np.ndarray:
    """Read a raw float32 depth dump written by `save_depth`, as (H, W) float32."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise ImageFormatError(f"{path}: missing depth header")
    width, height, channels = struct.unpack("<iii", raw[:12])
    if channels != 1 or width <= 0 or height <= 0:
        raise ImageFormatError(f"{path}: bad depth header ({width}x{height}x{channels})")
    expected = width * height * 4
    data = raw[12 : 12 + expected]
    if len(data) != expected:
        raise ImageFormatError(f"{path}: truncated depth data")
    return np.frombuffer(data, dtype="<f4").reshape(height, width).astype(np.float32, copy=False)
