"""Command-line interface.

Subcommands:
  * ``synth``         generate a random splat scene + ground-truth trajectory
  * ``build-anchors`` render an anchor database from a scene and trajectory
  * ``relocalize``    estimate poses for a directory of query images
  * ``evaluate``      summarize pose accuracy and timing for a results batch

Every command is deterministic given its flags and seed; output files carry
no timestamps or wall-clock values (timings go to a separate sidecar), so
reruns produce byte-identical artifacts.  A JSON config file can supply any
long-flag value (keys use underscores); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .anchors import build_anchor_db, load_anchor_db, save_anchor_db
from .errors import SplatRelocError
from .evaluation import (
    ate_statistics,
    error_histogram,
    make_pose_trajectories,
    pose_errors,
    recall_at,
    timing_report,
    write_ate_csv,
)
from .features import OracleConfig
from .geometry import CameraIntrinsics, Pose, load_trajectory, save_trajectory
from .relocalize import (
    ExternalMatcher,
    IterationTrace,
    OracleMatcher,
    ReferenceMatcher,
    RelocalizeConfig,
    relocalize,
    save_result,
    save_result_timings,
)
from .renderer import load_ppm
from .scene import (
    DEFAULT_CAMERA,
    SyntheticSceneConfig,
    generate_synthetic_scene,
    load_splat_scene,
    save_splat_scene,
)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return data


def _setting(args: argparse.Namespace, config: dict, name: str, default):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _camera_from_settings(args: argparse.Namespace, config: dict) -> CameraIntrinsics:
    return CameraIntrinsics(
        fx=float(_setting(args, config, "fx", DEFAULT_CAMERA.fx)),
        fy=float(_setting(args, config, "fy", DEFAULT_CAMERA.fy)),
        cx=float(_setting(args, config, "cx", DEFAULT_CAMERA.cx)),
        cy=float(_setting(args, config, "cy", DEFAULT_CAMERA.cy)),
        width=int(_setting(args, config, "width", DEFAULT_CAMERA.width)),
        height=int(_setting(args, config, "height", DEFAULT_CAMERA.height)),
        near=float(_setting(args, config, "near", DEFAULT_CAMERA.near)),
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    default = SyntheticSceneConfig()
    scene_config = SyntheticSceneConfig(
        n_gaussians=int(_setting(args, config, "n_gaussians", default.n_gaussians)),
        extent=float(_setting(args, config, "extent", default.extent)),
        trajectory_length=float(
            _setting(args, config, "trajectory_length", default.trajectory_length)
        ),
        anchor_spacing=float(_setting(args, config, "anchor_spacing", default.anchor_spacing)),
    )
    seed = int(_setting(args, config, "seed", 0))
    scene, trajectory = generate_synthetic_scene(seed, scene_config)
    save_splat_scene(args.out, scene)
    save_trajectory(args.traj_out, trajectory)
    print(
        f"synth: wrote {len(scene)} gaussians to {args.out}, "
        f"{len(trajectory)} poses to {args.traj_out}"
    )
    return 0


def _cmd_build_anchors(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    scene = load_splat_scene(args.scene)
    trajectory = load_trajectory(args.trajectory)
    cam = _camera_from_settings(args, config)
    spacing = float(_setting(args, config, "spacing", 3.0))
    db = build_anchor_db(scene, trajectory, cam, spacing)
    save_anchor_db(args.out, db)
    print(f"build-anchors: wrote {len(db)} anchors to {args.out}")
    return 0


def _query_files(directory: str) -> list[Path]:
    files = sorted(Path(directory).glob("*.ppm"))
    if not files:
        raise ValueError(f"no .ppm query images found in {directory}")
    return files


def _cmd_relocalize(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    scene = load_splat_scene(args.scene)
    db = load_anchor_db(args.anchors)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    matcher_kind = _setting(args, config, "matcher", "reference")
    seed = int(_setting(args, config, "seed", 0))
    default = RelocalizeConfig()
    loop_config = RelocalizeConfig(
        max_iterations=int(_setting(args, config, "max_iterations", default.max_iterations)),
        trans_eps=float(_setting(args, config, "trans_eps", default.trans_eps)),
        rot_eps=float(_setting(args, config, "rot_eps", default.rot_eps)),
        min_matches=int(_setting(args, config, "min_matches", default.min_matches)),
    )

    gt_trajectory = None
    if matcher_kind == "oracle":
        gt_path = _setting(args, config, "query_gt", None)
        if gt_path is None:
            raise ValueError("--query-gt is required with the oracle matcher")
        gt_trajectory = load_trajectory(gt_path)
    elif matcher_kind == "external":
        if _setting(args, config, "matches_dir", None) is None:
            raise ValueError("--matches-dir is required with the external matcher")

    for query_file in _query_files(args.queries):
        query_id = query_file.stem
        query_image = load_ppm(query_file)
        if matcher_kind == "reference":
            matcher = ReferenceMatcher()
        elif matcher_kind == "oracle":
            try:
                gt_pose = gt_trajectory.pose_for(int(query_id))
            except (ValueError, KeyError):
                raise ValueError(
                    f"query {query_id!r}: no ground-truth pose line for the oracle matcher"
                ) from None
            oracle_config = OracleConfig(
                n=int(_setting(args, config, "oracle_n", OracleConfig.n)),
                pixel_noise_sigma=float(_setting(args, config, "noise", 0.5)),
                outlier_fraction=float(
                    _setting(args, config, "outlier_fraction", OracleConfig.outlier_fraction)
                ),
                seed=seed * 1_000_003 + int(query_id),
            )
            matcher = OracleMatcher(gt_pose, db.camera, oracle_config)
        elif matcher_kind == "external":
            matcher = ExternalMatcher(
                _setting(args, config, "matches_dir", None), query_id, db.camera
            )
        else:
            raise ValueError(f"unknown matcher {matcher_kind!r}")

        result = relocalize(query_image, scene, db, matcher, loop_config)
        save_result(out_dir / f"{query_id}.json", result, query_id=query_id)
        save_result_timings(out_dir / f"{query_id}.timing.json", result)
        note = f" ({result.message})" if result.message else ""
        print(
            f"relocalize {query_id}: {result.status} "
            f"iters={len(result.traces)} anchor={result.anchor_id}{note}"
        )
    return 0


_RECALL_TRANS = (0.01, 0.02, 0.05, 0.10, 0.20, 0.50)
_RECALL_ROT = (0.5, 1.0, 2.0, 5.0)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    results_dir = Path(args.results)
    gt_trajectory = load_trajectory(args.gt)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seq_name = _setting(args, config, "seq_name", "seq1")
    align = bool(getattr(args, "align", False) or config.get("align", False))

    result_files = sorted(
        p for p in results_dir.glob("*.json") if not p.name.endswith(".timing.json")
    )
    if not result_files:
        raise ValueError(f"no result JSON files found in {results_dir}")

    entries = []
    statuses: dict[str, int] = {}
    timing_traces: list[IterationTrace] = []
    for path in result_files:
        payload = json.loads(path.read_text())
        query_id = payload.get("query_id", path.stem)
        try:
            index = int(query_id)
            gt_pose = gt_trajectory.pose_for(index)
        except (ValueError, KeyError):
            raise ValueError(f"{path.name}: no ground-truth pose for query id {query_id!r}") from None
        est_pose = Pose.from_array(np.array(payload["final_pose"]))
        entries.append((index, est_pose, gt_pose))
        statuses[payload["status"]] = statuses.get(payload["status"], 0) + 1

        timing_path = path.with_name(path.stem + ".timing.json")
        if timing_path.exists():
            for tr in json.loads(timing_path.read_text())["traces"]:
                timing_traces.append(
                    IterationTrace(
                        iteration=tr["iteration"], pose=Pose.identity(), match_count=0,
                        mean_confidence=0.0, uniformity=0.0, trans_delta=0.0, rot_delta=0.0,
                        detect_ms=tr["detect_ms"], match_ms=tr["match_ms"],
                        pnp_ms=tr["pnp_ms"], render_ms=tr["render_ms"],
                    )
                )

    est_traj, gt_traj = make_pose_trajectories(entries)
    _, trans_errors, rot_errors = pose_errors(est_traj, gt_traj, align=align)

    stats = ate_statistics(trans_errors)
    write_ate_csv(out_dir / "ate.csv", [(seq_name, stats)])

    headline_trans = float(_setting(args, config, "recall_trans", 0.10))
    headline_rot = float(_setting(args, config, "recall_rot", 1.0))
    recall_payload = {
        "headline": {
            "trans_m": headline_trans,
            "rot_deg": headline_rot,
            "recall": recall_at(trans_errors, rot_errors, headline_trans, headline_rot),
        },
        "sweep": [
            {
                "trans_m": t,
                "rot_deg": r,
                "recall": recall_at(trans_errors, rot_errors, t, r),
            }
            for t in _RECALL_TRANS
            for r in _RECALL_ROT
        ],
        "statuses": dict(sorted(statuses.items())),
        "frames": int(trans_errors.size),
    }
    (out_dir / "recall.json").write_text(
        json.dumps(recall_payload, sort_keys=True, indent=2) + "\n"
    )

    trans_edges = np.linspace(0.0, 0.5, 21)
    rot_edges = np.linspace(0.0, 2.0, 21)
    trans_counts, trans_overflow = error_histogram(trans_errors, trans_edges)
    rot_counts, rot_overflow = error_histogram(rot_errors, rot_edges)
    histogram_payload = {
        "translation_m": {
            "edges": [float(e) for e in trans_edges],
            "counts": [int(c) for c in trans_counts],
            "overflow": trans_overflow,
        },
        "rotation_deg": {
            "edges": [float(e) for e in rot_edges],
            "counts": [int(c) for c in rot_counts],
            "overflow": rot_overflow,
        },
    }
    (out_dir / "histograms.json").write_text(
        json.dumps(histogram_payload, sort_keys=True, indent=2) + "\n"
    )

    report = timing_report(timing_traces)
    timing_payload = {
        "stage_mean_ms": {k: report.stage_mean_ms[k] for k in sorted(report.stage_mean_ms)},
        "stage_count": {k: report.stage_count[k] for k in sorted(report.stage_count)},
        "total_seconds": report.total_seconds,
    }
    (out_dir / "timing.json").write_text(
        json.dumps(timing_payload, sort_keys=True, indent=2) + "\n"
    )

    print(
        f"evaluate: {trans_errors.size} frames  "
        f"rmse={stats.rmse:.4f} m  median={stats.median:.4f} m  "
        f"recall@({headline_trans} m,{headline_rot} deg)="
        f"{recall_payload['headline']['recall']:.3f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splatreloc",
        description="Monocular relocalization against 3D Gaussian splat maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene and trajectory")
    p_synth.add_argument("--out", required=True, help="output scene file (.gsplat)")
    p_synth.add_argument("--traj-out", required=True, help="output trajectory pose file")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--n-gaussians", type=int, dest="n_gaussians")
    p_synth.add_argument("--extent", type=float)
    p_synth.add_argument("--trajectory-length", type=float, dest="trajectory_length")
    p_synth.add_argument("--anchor-spacing", type=float, dest="anchor_spacing")
    p_synth.add_argument("--config")
    p_synth.set_defaults(func=_cmd_synth)

    p_build = sub.add_parser("build-anchors", help="render an anchor database")
    p_build.add_argument("--scene", required=True)
    p_build.add_argument("--trajectory", required=True)
    p_build.add_argument("--out", required=True, help="output anchor directory")
    p_build.add_argument("--spacing", type=float)
    for flag in ("--fx", "--fy", "--cx", "--cy", "--near"):
        p_build.add_argument(flag, type=float)
    p_build.add_argument("--width", type=int)
    p_build.add_argument("--height", type=int)
    p_build.add_argument("--config")
    p_build.set_defaults(func=_cmd_build_anchors)

    p_reloc = sub.add_parser("relocalize", help="relocalize a directory of query images")
    p_reloc.add_argument("--scene", required=True)
    p_reloc.add_argument("--anchors", required=True, help="anchor database directory")
    p_reloc.add_argument("--queries", required=True, help="directory of query .ppm images")
    p_reloc.add_argument("--out", required=True, help="output results directory")
    p_reloc.add_argument("--matcher", choices=("reference", "oracle", "external"))
    p_reloc.add_argument("--query-gt", dest="query_gt", help="ground-truth poses (oracle matcher)")
    p_reloc.add_argument("--matches-dir", dest="matches_dir", help="external match files")
    p_reloc.add_argument("--seed", type=int)
    p_reloc.add_argument("--oracle-n", type=int, dest="oracle_n")
    p_reloc.add_argument("--noise", type=float, help="oracle pixel noise sigma")
    p_reloc.add_argument(
        "--outlier-fraction", type=float, dest="outlier_fraction", help="oracle outlier fraction"
    )
    p_reloc.add_argument("--max-iterations", type=int, dest="max_iterations")
    p_reloc.add_argument("--trans-eps", type=float, dest="trans_eps")
    p_reloc.add_argument("--rot-eps", type=float, dest="rot_eps")
    p_reloc.add_argument("--min-matches", type=int, dest="min_matches")
    p_reloc.add_argument("--config")
    p_reloc.set_defaults(func=_cmd_relocalize)

    p_eval = sub.add_parser("evaluate", help="summarize a results directory")
    p_eval.add_argument("--results", required=True)
    p_eval.add_argument("--gt", required=True, help="ground-truth trajectory pose file")
    p_eval.add_argument("--out-dir", required=True, dest="out_dir")
    p_eval.add_argument("--seq-name", dest="seq_name")
    p_eval.add_argument("--align", action="store_true", help="rigidly align before scoring")
    p_eval.add_argument("--recall-trans", type=float, dest="recall_trans")
    p_eval.add_argument("--recall-rot", type=float, dest="recall_rot")
    p_eval.add_argument("--config")
    p_eval.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SplatRelocError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
