"""Exception types shared across the relocalization pipeline."""

from __future__ import annotations


class SplatRelocError(Exception):
    """Base class for all errors raised by this package."""


class SplatFormatError(SplatRelocError):
    """A splat scene file is malformed (bad header, record, or value)."""


class PoseFileError(SplatRelocError):
    """A trajectory pose file is malformed."""


class ImageFormatError(SplatRelocError):
    """A PPM image file on disk is malformed."""


class InsufficientMatches(SplatRelocError):
    """Fewer correspondences or matches than the operation requires."""


class DegenerateGeometry(SplatRelocError):
    """Input geometry is degenerate (collinear / coplanar point sets)."""


class CheiralityViolation(SplatRelocError):
    """No solution places the observed points in front of the camera."""


class NoConsensus(SplatRelocError):
    """Robust estimation failed to find a consensus set of inliers."""


class TrajectoryTooShort(SplatRelocError):
    """Trajectory does not span the requested anchor spacing."""
