"""Command-line interface.

Subcommands:
  * ``synth``         generate a random splat scene + ground-truth trajectory
  * ``build-anchors`` render an anchor database from a scene and trajectory
  * ``relocalize``    estimate poses for a directory of query images with the
                      reference or the oracle matcher (other matchers plug
                      in through the library's ``relocalize.Matcher``)
  * ``evaluate``      summarize pose accuracy and timing for a results batch

Every command is deterministic given its flags and seed; output files carry
no timestamps or wall-clock values, so reruns produce byte-identical
artifacts.  The exception is the ``<query>.timing.json`` sidecar that
``relocalize`` writes next to each result: the query's time per stage in ms,
summed from the spans the library records (``spans.py``); ``evaluate``
averages the sidecars per iteration into ``timing.json``.

``--config settings.json`` supplies optional flags from a JSON object: each
key is a flag's name with underscores (``"n_gaussians"`` for
``--n-gaussians``), and ``main`` parses the file's settings as flags placed
before those of the command line, so argparse checks names, types and
choices and an explicit flag wins.  JSON ``true`` sets a switch and ``false``
leaves it off.  Long flags must be spelled out in full, on the command line
as in a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
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
    write_ate_csv,
)
from .features import OracleConfig
from .geometry import CameraIntrinsics, Pose, load_trajectory, save_trajectory
from .relocalize import (
    OracleMatcher,
    ReferenceMatcher,
    RelocalizeConfig,
    relocalize,
    save_result,
)
from .renderer import load_ppm
from .scene import (
    DEFAULT_CAMERA,
    SyntheticSceneConfig,
    generate_synthetic_scene,
    load_splat_scene,
    save_splat_scene,
)
from .spans import recording

#: Timing-report stage of each library span; spans not named here are not reported.
_SPAN_STAGE = {
    "features.detect_and_describe": "detect",
    "features.match_features": "match",
    "features.oracle_match": "match",
    "pnp.solve_pnp": "pnp",
    "renderer.render": "render",
}


def _cmd_synth(args: argparse.Namespace) -> int:
    scene, trajectory = generate_synthetic_scene(args.seed, _from_args(SyntheticSceneConfig, args))
    save_splat_scene(args.out, scene)
    save_trajectory(args.traj_out, trajectory)
    print(
        f"synth: wrote {len(scene)} gaussians to {args.out}, "
        f"{len(trajectory)} poses to {args.traj_out}"
    )
    return 0


def _cmd_build_anchors(args: argparse.Namespace) -> int:
    scene = load_splat_scene(args.scene)
    trajectory = load_trajectory(args.trajectory)
    db = build_anchor_db(scene, trajectory, _from_args(CameraIntrinsics, args), args.spacing)
    save_anchor_db(args.out, db)
    print(f"build-anchors: wrote {len(db)} anchors to {args.out}")
    return 0


def _query_files(directory: str) -> list[Path]:
    files = sorted(Path(directory).glob("*.ppm"))
    if not files:
        raise ValueError(f"no .ppm query images found in {directory}")
    return files


def _cmd_relocalize(args: argparse.Namespace) -> int:
    loop_config = _from_args(RelocalizeConfig, args)
    scene = load_splat_scene(args.scene)
    db = load_anchor_db(args.anchors)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    gt_trajectory = None
    if args.matcher == "oracle":
        if args.query_gt is None:
            raise ValueError("--query-gt is required with the oracle matcher")
        gt_trajectory = load_trajectory(args.query_gt)

    for query_file in _query_files(args.queries):
        query_id = query_file.stem
        query_image = load_ppm(query_file)
        if args.matcher == "reference":
            matcher = ReferenceMatcher()
        else:
            try:
                gt_pose = gt_trajectory.pose_for(int(query_id))
            except (ValueError, KeyError):
                raise ValueError(
                    f"query {query_id!r}: no ground-truth pose line for the oracle matcher"
                ) from None
            oracle_config = OracleConfig(
                n=args.oracle_n,
                pixel_noise_sigma=args.noise,
                outlier_fraction=args.outlier_fraction,
                seed=args.seed * 1_000_003 + int(query_id),
            )
            matcher = OracleMatcher(gt_pose, db.camera, oracle_config)

        with recording() as spans:
            result = relocalize(query_image, scene, db, matcher, loop_config)
        save_result(out_dir / f"{query_id}.json", result, query_id=query_id)
        stage_ms = dict.fromkeys(_SPAN_STAGE.values(), 0.0)
        for name, start_ns, end_ns in spans:
            if name in _SPAN_STAGE:
                stage_ms[_SPAN_STAGE[name]] += (end_ns - start_ns) / 1e6
        (out_dir / f"{query_id}.timing.json").write_text(
            json.dumps(stage_ms, sort_keys=True, indent=2) + "\n"
        )
        note = f" ({result.message})" if result.message else ""
        print(
            f"relocalize {query_id}: {result.status} "
            f"iters={len(result.traces)} anchor={result.anchor_id}{note}"
        )
    return 0


_RECALL_TRANS = (0.01, 0.02, 0.05, 0.10, 0.20, 0.50)
_RECALL_ROT = (0.5, 1.0, 2.0, 5.0)


def _is_number(value: object) -> bool:
    return type(value) in (int, float)  # a JSON true or false is a bool, not a number


#: Values of a result file that ``evaluate`` reads, as (description, test).
_RESULT_VALUES = {
    "query_id": ("a string or an integer", lambda v: type(v) in (str, int)),
    "status": ("a string", lambda v: isinstance(v, str)),
    "final_pose": (
        "a list of 7 numbers",
        lambda v: isinstance(v, list) and len(v) == 7 and all(map(_is_number, v)),
    ),
    "iterations": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
}


def _read_json(path: Path) -> object:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path.name}: invalid JSON ({exc})") from None


def _cmd_evaluate(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    gt_trajectory = load_trajectory(args.gt)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    result_files = sorted(
        p for p in results_dir.glob("*.json") if not p.name.endswith(".timing.json")
    )
    if not result_files:
        raise ValueError(f"no result JSON files found in {results_dir}")

    entries = []
    frame_files: dict[int, str] = {}  # frame index -> the result file that holds it
    statuses: dict[str, int] = {}
    stage_ms = dict.fromkeys(_SPAN_STAGE.values(), 0.0)
    timed_iterations = 0  # iterations of the results that have a sidecar
    for path in result_files:
        payload = _read_json(path)
        if not isinstance(payload, dict):
            raise ValueError(f"{path.name}: expected a JSON object")
        for key in ("status", "final_pose", "iterations"):
            if key not in payload:
                raise ValueError(f'{path.name}: missing "{key}"')
        values = {"query_id": path.stem, **payload}
        for key, (kind, ok) in _RESULT_VALUES.items():
            if not ok(values[key]):
                got = json.dumps(values[key])
                raise ValueError(f'{path.name}: "{key}" must be {kind}, got {got}')
        query_id = values["query_id"]
        try:
            index = int(query_id)
            gt_pose = gt_trajectory.pose_for(index)
        except (ValueError, KeyError):
            raise ValueError(f"{path.name}: no ground-truth pose for query id {query_id!r}") from None
        if index in frame_files:
            raise ValueError(
                f"{frame_files[index]} and {path.name} are both results for frame {index}"
            )
        frame_files[index] = path.name
        try:
            est_pose = Pose.from_array(payload["final_pose"])
        except ValueError as exc:
            raise ValueError(f'{path.name}: "final_pose": {exc}') from None
        entries.append((index, est_pose, gt_pose))
        statuses[payload["status"]] = statuses.get(payload["status"], 0) + 1

        timing_path = path.with_name(path.stem + ".timing.json")
        if timing_path.exists():
            sidecar = _read_json(timing_path)
            if not isinstance(sidecar, dict) or not set(stage_ms) <= set(sidecar):
                raise ValueError(f"{timing_path.name}: expected per-stage totals {sorted(stage_ms)}")
            for stage in stage_ms:
                if not _is_number(sidecar[stage]):
                    raise ValueError(
                        f'{timing_path.name}: "{stage}" must be a number, '
                        f"got {json.dumps(sidecar[stage])}"
                    )
                stage_ms[stage] += sidecar[stage]
            timed_iterations += payload["iterations"]

    est_traj, gt_traj = make_pose_trajectories(entries)
    _, trans_errors, rot_errors = pose_errors(est_traj, gt_traj, align=args.align)

    stats = ate_statistics(trans_errors)
    write_ate_csv(out_dir / "ate.csv", [(args.seq_name, stats)])

    headline_trans, headline_rot = args.recall_trans, args.recall_rot
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

    timing_payload = {
        "stage_mean_ms": {
            stage: total / timed_iterations if timed_iterations else 0.0
            for stage, total in stage_ms.items()
        },
        "stage_count": dict.fromkeys(stage_ms, timed_iterations),
        "total_seconds": sum(stage_ms.values()) / 1e3,
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


def _add_field_flags(parser: argparse.ArgumentParser, defaults) -> None:
    """One ``--field-name`` flag per field of the dataclass instance ``defaults``,
    typed and defaulted by that field's value there."""
    for f in fields(defaults):
        value = getattr(defaults, f.name)
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(value), default=value)


def _from_args(cls: type, args: argparse.Namespace):
    """The dataclass ``cls`` built from the flags ``_add_field_flags`` declared for it."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    """The CLI's parser; with ``exit_on_error=False`` a bad value raises ``ArgumentError``."""
    parser = argparse.ArgumentParser(
        prog="splatreloc",
        description="Monocular relocalization against 3D Gaussian splat maps.",
        exit_on_error=exit_on_error,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False, exit_on_error=exit_on_error)
        p.add_argument("--config", help="JSON file of optional flag values")
        p.set_defaults(func=func)
        return p

    p_synth = command("synth", _cmd_synth, "generate a synthetic scene and trajectory")
    p_synth.add_argument(
        "--out", required=True, help="output scene file (.gsplat, binary gsplat v2)"
    )
    p_synth.add_argument("--traj-out", required=True, help="output trajectory pose file")
    p_synth.add_argument("--seed", type=int, default=0)
    _add_field_flags(p_synth, SyntheticSceneConfig())

    p_build = command("build-anchors", _cmd_build_anchors, "render an anchor database")
    p_build.add_argument("--scene", required=True)
    p_build.add_argument("--trajectory", required=True)
    p_build.add_argument(
        "--out", required=True, help="output anchor map file (such as anchors.map, anchordb v2)"
    )
    p_build.add_argument("--spacing", type=float, default=SyntheticSceneConfig.anchor_spacing)
    _add_field_flags(p_build, DEFAULT_CAMERA)

    p_reloc = command("relocalize", _cmd_relocalize, "relocalize a directory of query images")
    p_reloc.add_argument("--scene", required=True)
    p_reloc.add_argument("--anchors", required=True, help="anchor map file (anchordb v2)")
    p_reloc.add_argument("--queries", required=True, help="directory of query .ppm images")
    p_reloc.add_argument("--out", required=True, help="output results directory")
    p_reloc.add_argument("--matcher", choices=("reference", "oracle"), default="reference")
    p_reloc.add_argument("--query-gt", help="ground-truth poses (oracle matcher)")
    p_reloc.add_argument("--seed", type=int, default=0)
    p_reloc.add_argument("--oracle-n", type=int, default=OracleConfig.n)
    p_reloc.add_argument("--noise", type=float, default=0.5, help="oracle pixel noise sigma")
    p_reloc.add_argument(
        "--outlier-fraction", type=float, default=OracleConfig.outlier_fraction,
        help="oracle outlier fraction",
    )
    _add_field_flags(p_reloc, RelocalizeConfig())

    p_eval = command("evaluate", _cmd_evaluate, "summarize a results directory")
    p_eval.add_argument("--results", required=True)
    p_eval.add_argument("--gt", required=True, help="ground-truth trajectory pose file")
    p_eval.add_argument("--out-dir", required=True)
    p_eval.add_argument("--seq-name", default="seq1")
    p_eval.add_argument("--align", action="store_true", help="rigidly align before scoring")
    p_eval.add_argument("--recall-trans", type=float, default=0.10)
    p_eval.add_argument("--recall-rot", type=float, default=1.0)
    return parser


def _parse_with_config(argv: list[str], path: str) -> argparse.Namespace:
    """``argv`` parsed again with the JSON file's settings as flags before its own."""
    data = _read_json(Path(path))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    tokens = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        if value is False:
            continue
        if value is True:
            tokens.append(flag)
        elif isinstance(value, (str, int, float)):
            tokens.append(f"{flag}={value}")
        else:
            raise ValueError(f'{path}: setting "{key}" is {json.dumps(value)}, not a scalar')
    try:
        args, unknown = build_parser(exit_on_error=False).parse_known_args(
            [argv[0], *tokens, *argv[1:]]
        )
    except argparse.ArgumentError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if unknown:
        names = ", ".join(f'"{t[2:].partition("=")[0].replace("-", "_")}"' for t in unknown)
        raise ValueError(f"{path}: {argv[0]} has no setting {names}")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            args = _parse_with_config(argv, args.config)
        return args.func(args)
    except (SplatRelocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
