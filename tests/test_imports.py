"""The package's public names, and the import boundary: only feature
detection loads SciPy.

Each boundary check runs in a fresh interpreter, because this test process
has SciPy loaded already (``tests/test_features.py`` imports it).
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import splatreloc
from splatreloc import detect_and_describe

SRC = str(Path(splatreloc.__file__).resolve().parents[1])

PIPELINE = """
import json
import sys

import numpy as np

import splatreloc as sr


def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


cam = sr.DEFAULT_CAMERA
scene, trajectory = sr.generate_synthetic_scene(5, sr.SyntheticSceneConfig(n_gaussians=300))
sr.save_anchor_db("anchors.map", sr.build_anchor_db(scene, trajectory, cam, spacing=3.0))
db = sr.load_anchor_db("anchors.map")
pose = trajectory.pose_for(1)
query = sr.render(scene, pose, cam).rgb
result = sr.relocalize(query, scene, db, sr.OracleMatcher(pose, cam, sr.OracleConfig(seed=0)))
estimated, ground_truth = sr.Trajectory(), sr.Trajectory()
estimated.append(0, result.final_pose)
ground_truth.append(0, pose)
_, trans_errors, _ = sr.pose_errors(estimated, ground_truth)
sr.ate_statistics(trans_errors)
report = {"status": result.status, "before_detect": scipy_modules()}

keypoints, descriptors = sr.detect_and_describe(query)
report["after_detect"] = scipy_modules()
np.save("query.npy", query)
np.savez(
    "features.npz", positions=keypoints.positions, scales=keypoints.scales,
    scores=keypoints.scores, descriptors=descriptors,
)
print(json.dumps(report))
"""

CLI_WITHOUT_SCIPY = """
import json
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError

from pathlib import Path

from splatreloc import DEFAULT_CAMERA, load_splat_scene, load_trajectory, render, save_ppm
from splatreloc.cli import main

codes = [
    main(["synth", "--out", "scene.gsplat", "--traj-out", "gt.txt", "--seed", "5",
          "--n-gaussians", "300"]),
    main(["build-anchors", "--scene", "scene.gsplat", "--trajectory", "gt.txt",
          "--out", "anchors.map"]),
]
scene, trajectory = load_splat_scene("scene.gsplat"), load_trajectory("gt.txt")
Path("queries").mkdir()
save_ppm("queries/0001.ppm", render(scene, trajectory.pose_for(1), DEFAULT_CAMERA).rgb)
codes += [
    main(["relocalize", "--scene", "scene.gsplat", "--anchors", "anchors.map",
          "--queries", "queries", "--out", "results", "--matcher", "oracle",
          "--query-gt", "gt.txt", "--seed", "0"]),
    main(["evaluate", "--results", "results", "--gt", "gt.txt", "--out-dir", "report"]),
]
print(json.dumps(codes))
"""


def run_python(code: str, cwd: Path) -> str:
    """Run ``code`` in a fresh interpreter that imports this package; return the
    last line it prints (the CLI commands print progress lines before it)."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_only_detection_loads_scipy(tmp_path):
    """Map build, save/load, oracle relocalization and scoring load no SciPy;
    the first detection does, and gives this process's bytes."""
    report = json.loads(run_python(PIPELINE, tmp_path))
    assert report["status"] == "converged"
    assert report["before_detect"] == []
    assert "scipy.ndimage" in report["after_detect"]

    keypoints, descriptors = detect_and_describe(np.load(tmp_path / "query.npy"))
    theirs = np.load(tmp_path / "features.npz")
    for name, ours in [
        ("positions", keypoints.positions), ("scales", keypoints.scales),
        ("scores", keypoints.scores), ("descriptors", descriptors),
    ]:
        assert theirs[name].dtype == ours.dtype and theirs[name].shape == ours.shape
        assert theirs[name].tobytes() == ours.tobytes(), name


def test_cli_runs_without_scipy(tmp_path):
    """synth, build-anchors, oracle relocalize and evaluate need no SciPy at all."""
    assert json.loads(run_python(CLI_WITHOUT_SCIPY, tmp_path)) == [0, 0, 0, 0]


PUBLIC_NAMES = [
    "AnchorDatabase", "AnchorRecord", "AteStats", "CameraIntrinsics", "CheiralityViolation",
    "Correspondences", "DEFAULT_CAMERA", "DegenerateGeometry",
    "ImageFormatError", "InsufficientMatches", "IterationTrace", "Keypoints",
    "MatchStats", "Matches", "NoConsensus", "OracleConfig", "OracleMatcher", "Pose",
    "PoseFileError", "ReferenceMatcher", "ReferenceView", "RelocalizationResult",
    "RelocalizeConfig", "RenderOutput", "SolverReport", "SplatFormatError", "SplatRelocError",
    "SplatScene", "SyntheticSceneConfig", "Trajectory", "TrajectoryTooShort",
    "ate_statistics", "build_anchor_db", "detect_and_describe", "epnp", "error_histogram",
    "generate_synthetic_scene", "global_descriptor", "lift_to_3d", "load_anchor_db",
    "load_ppm", "load_splat_scene",
    "load_trajectory", "look_at", "match_features", "match_stats", "oracle_match", "pose_delta",
    "pose_errors", "recall_at", "recording", "refine_ba", "relocalize", "render",
    "retrieve", "save_anchor_db",
    "save_ppm", "save_result", "save_splat_scene", "save_trajectory",
    "solve_pnp", "to_levels", "traced", "umeyama_align", "write_ate_csv",
]


def test_public_names():
    """The package's public names, sorted; adding or removing one edits this list.

    Submodules are left out: they become attributes as they are imported, so
    the set would depend on what ran before.
    """
    names = sorted(
        name for name, value in vars(splatreloc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
