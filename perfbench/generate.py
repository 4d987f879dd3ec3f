"""Generate one workload's inputs from a seed.

Writes, into an output directory:

  scene.gsplat       the synthetic splat scene
  trajectory.txt     its ground-truth camera trajectory (the map is built from it)
  queries/qNNN.ppm   query photos rendered at the query poses
  queries.json       per query: image name, ground-truth pose, source frame,
                     oracle matcher seed

The same (workload, seed) always gives byte-identical files.  The benchmark
runs this as its own process before the measured one starts, so neither the
measured set-up time nor the measured peak memory includes input generation.

    python3 perfbench/generate.py --workload oracle-offset --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from splatreloc import (  # noqa: E402
    DEFAULT_CAMERA,
    Pose,
    SyntheticSceneConfig,
    generate_synthetic_scene,
    render,
    save_ppm,
    save_splat_scene,
    save_trajectory,
)
from splatreloc.geometry import quat_from_axis_angle, quat_multiply  # noqa: E402

ANCHOR_SPACING = 3.0  # meters between anchors, as in the acceptance tests
QUERY_POOL = 10  # distinct query photos per run; the closed loop cycles them

#: name -> (Gaussians, trajectory length in m, query rule)
WORKLOADS = {
    "oracle-offset": (4000, 12.0, "offset"),
    "reference-trajectory": (4000, 12.0, "held-out"),
    "map-build": (16000, 30.0, None),
}


def anchor_frames(trajectory) -> list[int]:
    """Frames ``build_anchor_db`` keeps: the first, then each >= spacing from the last kept."""
    picked, last = [], None
    for index, pose in trajectory:
        if last is None or float(np.linalg.norm(pose.translation - last)) >= ANCHOR_SPACING:
            picked.append(index)
            last = pose.translation
    return picked


def offset_pose(base: Pose, rng: np.random.Generator) -> Pose:
    """A pose 0.5 m and 5 degrees away from ``base`` in seeded random directions."""
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    axis = rng.standard_normal(3)
    rotation = quat_multiply(quat_from_axis_angle(axis, np.deg2rad(5.0)), base.rotation)
    return Pose(rotation, base.translation + 0.5 * direction)


def query_poses(rule: str, trajectory, seed: int) -> list[tuple[int, Pose]]:
    """(source frame, ground-truth pose) for each query of the pool."""
    anchors = anchor_frames(trajectory)
    if rule == "offset":
        # Cyclic over the anchors, as the acceptance tests' offset_query does.
        picks = []
        for k in range(QUERY_POOL):
            frame = anchors[k % len(anchors)]
            rng = np.random.default_rng([seed, k])
            picks.append((frame, offset_pose(trajectory.pose_for(frame), rng)))
        return picks
    held_out = [i for i in trajectory.indices if i not in anchors]
    order = np.random.default_rng(seed).permutation(len(held_out))[:QUERY_POOL]
    return [(held_out[i], trajectory.pose_for(held_out[i])) for i in order]


def generate(workload: str, seed: int, out: Path) -> None:
    n_gaussians, length, rule = WORKLOADS[workload]
    scene, trajectory = generate_synthetic_scene(
        seed,
        SyntheticSceneConfig(
            n_gaussians=n_gaussians, trajectory_length=length, anchor_spacing=ANCHOR_SPACING
        ),
    )
    out.mkdir(parents=True, exist_ok=True)
    save_splat_scene(out / "scene.gsplat", scene)
    save_trajectory(out / "trajectory.txt", trajectory)

    entries = []
    if rule is not None:
        (out / "queries").mkdir(exist_ok=True)
        for k, (frame, pose) in enumerate(query_poses(rule, trajectory, seed)):
            name = f"q{k:03d}.ppm"
            save_ppm(out / "queries" / name, render(scene, pose, DEFAULT_CAMERA).rgb)
            entries.append(
                {
                    "image": name,
                    "frame": frame,
                    "pose": [float(v) for v in pose.as_array()],
                    "oracle_seed": seed * 1_000_003 + k,
                }
            )
    manifest = {
        "workload": workload,
        "seed": seed,
        "n_gaussians": n_gaussians,
        "trajectory_length": length,
        "anchor_spacing": ANCHOR_SPACING,
        "query_rule": rule,
        "queries": entries,
    }
    (out / "queries.json").write_text(json.dumps(manifest, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
