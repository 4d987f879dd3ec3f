"""Monocular camera relocalization against 3D Gaussian splat maps."""

from .anchors import (
    AnchorDatabase,
    AnchorRecord,
    build_anchor_db,
    global_descriptor,
    load_anchor_db,
    retrieve,
    save_anchor_db,
)
from .errors import (
    CheiralityViolation,
    DegenerateGeometry,
    ImageFormatError,
    InsufficientMatches,
    MatchFileError,
    NoConsensus,
    PoseFileError,
    SplatFormatError,
    SplatRelocError,
    TrajectoryTooShort,
)
from .evaluation import (
    AteStats,
    ate_statistics,
    error_histogram,
    pose_errors,
    recall_at,
    write_ate_csv,
)
from .features import (
    Keypoints,
    Matches,
    MatchStats,
    OracleConfig,
    detect_and_describe,
    load_matches,
    match_features,
    match_stats,
    oracle_match,
    save_matches,
)
from .geometry import (
    CameraIntrinsics,
    Pose,
    Trajectory,
    load_trajectory,
    look_at,
    pose_delta,
    save_trajectory,
)
from .pnp import (
    Correspondences,
    SolverReport,
    epnp,
    refine_ba,
    solve_pnp,
    umeyama_align,
)
from .relocalize import (
    ExternalMatcher,
    IterationTrace,
    OracleMatcher,
    ReferenceMatcher,
    ReferenceView,
    RelocalizationResult,
    RelocalizeConfig,
    lift_to_3d,
    relocalize,
    save_result,
)
from .renderer import (
    RenderOutput,
    load_depth_f32,
    load_ppm,
    load_ppm_levels,
    render,
    save_depth,
    save_ppm,
    save_ppm_levels,
    to_levels,
)
from .scene import (
    DEFAULT_CAMERA,
    SplatScene,
    SyntheticSceneConfig,
    generate_synthetic_scene,
    load_splat_scene,
    save_splat_scene,
)
from .spans import recording, traced

__version__ = "0.1.0"
