"""End-to-end tests of the command-line interface (direct main() calls)."""

import argparse
import json

import numpy as np
import pytest

from splatreloc import (
    Pose,
    ReferenceMatcher,
    SyntheticSceneConfig,
    Trajectory,
    build_anchor_db,
    generate_synthetic_scene,
    load_anchor_db,
    load_ppm,
    load_splat_scene,
    load_trajectory,
    relocalize,
    render,
    save_anchor_db,
    save_ppm,
    save_result,
    save_splat_scene,
    save_trajectory,
)
from splatreloc.cli import build_parser, main
from splatreloc.geometry import quat_from_axis_angle
from splatreloc.scene import DEFAULT_CAMERA


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scene, trajectory, anchor map, and one query image, built via the CLI."""
    root = tmp_path_factory.mktemp("cli_ws")
    scene_path = root / "scene.gsplat"
    traj_path = root / "gt.txt"
    assert (
        main(
            [
                "synth",
                "--out", str(scene_path),
                "--traj-out", str(traj_path),
                "--seed", "5",
                "--n-gaussians", "300",
            ]
        )
        == 0
    )
    anchors_map = root / "anchors.map"
    assert (
        main(
            [
                "build-anchors",
                "--scene", str(scene_path),
                "--trajectory", str(traj_path),
                "--out", str(anchors_map),
            ]
        )
        == 0
    )
    queries_dir = root / "queries"
    queries_dir.mkdir()
    scene = load_splat_scene(scene_path)
    trajectory = load_trajectory(traj_path)
    save_ppm(queries_dir / "0.ppm", render(scene, trajectory.pose_for(0), DEFAULT_CAMERA).rgb)
    return root


def run_relocalize(workspace, out_dir, extra=()):
    return main(
        [
            "relocalize",
            "--scene", str(workspace / "scene.gsplat"),
            "--anchors", str(workspace / "anchors.map"),
            "--queries", str(workspace / "queries"),
            "--out", str(out_dir),
            "--matcher", "oracle",
            "--query-gt", str(workspace / "gt.txt"),
            "--seed", "3",
            *extra,
        ]
    )


class TestSynth:
    def test_writes_parsable_artifacts(self, workspace):
        scene = load_splat_scene(workspace / "scene.gsplat")
        trajectory = load_trajectory(workspace / "gt.txt")
        assert len(scene) == 300
        assert len(trajectory) == 25

    def test_rerun_is_byte_identical(self, workspace, tmp_path, capsys):
        """Same seed and flags reproduce the exact same files."""
        args = ["synth", "--out", str(tmp_path / "s.gsplat"), "--traj-out", str(tmp_path / "t.txt"),
                "--seed", "5", "--n-gaussians", "300"]
        assert main(args) == 0
        assert (tmp_path / "s.gsplat").read_bytes() == (workspace / "scene.gsplat").read_bytes()
        assert (tmp_path / "t.txt").read_bytes() == (workspace / "gt.txt").read_bytes()
        assert "synth: wrote" in capsys.readouterr().out

    def test_config_file_supplies_values(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_gaussians": 150, "seed": 5}))
        assert (
            main(["synth", "--out", str(tmp_path / "s.gsplat"),
                  "--traj-out", str(tmp_path / "t.txt"), "--config", str(config)])
            == 0
        )
        assert len(load_splat_scene(tmp_path / "s.gsplat")) == 150

    def test_flag_beats_config_file(self, tmp_path):
        """An explicit flag overrides the same key in the config file."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_gaussians": 150, "seed": 5}))
        assert (
            main(["synth", "--out", str(tmp_path / "s.gsplat"),
                  "--traj-out", str(tmp_path / "t.txt"),
                  "--config", str(config), "--n-gaussians", "120"])
            == 0
        )
        assert len(load_splat_scene(tmp_path / "s.gsplat")) == 120

    def test_defaults_are_the_library_defaults(self, tmp_path):
        """With no seed or size flags, synth writes generate_synthetic_scene(0)."""
        assert (
            main(["synth", "--out", str(tmp_path / "s.gsplat"), "--traj-out", str(tmp_path / "t.txt")])
            == 0
        )
        scene, trajectory = generate_synthetic_scene(0)
        save_splat_scene(tmp_path / "expected.gsplat", scene)
        save_trajectory(tmp_path / "expected.txt", trajectory)
        assert (tmp_path / "s.gsplat").read_bytes() == (tmp_path / "expected.gsplat").read_bytes()
        assert (tmp_path / "t.txt").read_bytes() == (tmp_path / "expected.txt").read_bytes()

    def test_too_few_gaussians_is_an_error_line(self, tmp_path, capsys):
        """A scene some pose barely sees exits 1 with an error line and writes nothing."""
        out, traj = tmp_path / "s.gsplat", tmp_path / "t.txt"
        args = ["synth", "--out", str(out), "--traj-out", str(traj), "--n-gaussians", "50", "--seed", "5"]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "error: synthetic pose 0 sees only 39 Gaussians (< 50)\n"
        )
        assert not out.exists() and not traj.exists()


class TestBuildAnchors:
    def test_database_reloads(self, workspace):
        db = load_anchor_db(workspace / "anchors.map")
        assert len(db) == 5
        assert [rec.source_index for rec in db.records] == [0, 6, 12, 18, 24]
        assert (workspace / "anchors.map").read_bytes().startswith(b"anchordb v2 5 320 240\n")

    def test_spacing_flag(self, workspace, tmp_path):
        assert (
            main(["build-anchors", "--scene", str(workspace / "scene.gsplat"),
                  "--trajectory", str(workspace / "gt.txt"),
                  "--out", str(tmp_path / "a"), "--spacing", "6.0"])
            == 0
        )
        db = load_anchor_db(tmp_path / "a")
        assert [rec.source_index for rec in db.records] == [0, 12, 24]

    def test_defaults_are_the_library_defaults(self, workspace, tmp_path):
        """The workspace map, built with no optional flags, is the library's default map."""
        scene = load_splat_scene(workspace / "scene.gsplat")
        trajectory = load_trajectory(workspace / "gt.txt")
        db = build_anchor_db(scene, trajectory, DEFAULT_CAMERA, SyntheticSceneConfig.anchor_spacing)
        save_anchor_db(tmp_path / "expected.map", db)
        expected = (tmp_path / "expected.map").read_bytes()
        assert (workspace / "anchors.map").read_bytes() == expected


class TestRelocalizeCommand:
    def test_writes_result_and_timing(self, workspace, tmp_path, capsys):
        out = tmp_path / "results"
        assert run_relocalize(workspace, out) == 0
        assert "relocalize 0: converged" in capsys.readouterr().out
        payload = json.loads((out / "0.json").read_text())
        assert payload["query_id"] == "0"
        assert payload["status"] == "converged"
        assert len(payload["final_pose"]) == 7
        timing = json.loads((out / "0.timing.json").read_text())
        assert set(timing) == {"detect", "match", "pnp", "render"}
        assert all(isinstance(ms, float) and ms >= 0.0 for ms in timing.values())
        # Every iteration matches and solves; iterations after the first also render.
        assert timing["match"] > 0.0 and timing["pnp"] > 0.0
        assert timing["detect"] == 0.0  # the oracle matcher detects nothing
        assert (timing["render"] > 0.0) == (payload["iterations"] > 1)

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        """The result JSON contains no wall-clock data, so reruns match exactly."""
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_relocalize(workspace, out_a) == 0
        assert run_relocalize(workspace, out_b) == 0
        assert (out_a / "0.json").read_bytes() == (out_b / "0.json").read_bytes()

    def test_estimate_matches_ground_truth(self, workspace, tmp_path):
        """The query was rendered at ground-truth frame 0; the estimate lands there."""
        out = tmp_path / "results"
        assert run_relocalize(workspace, out) == 0
        payload = json.loads((out / "0.json").read_text())
        gt = load_trajectory(workspace / "gt.txt").pose_for(0)
        estimate = np.array(payload["final_pose"][4:])
        assert np.linalg.norm(estimate - gt.translation) < 0.02

    def test_defaults_are_the_library_defaults(self, workspace, tmp_path):
        """With no optional flags: the reference matcher and RelocalizeConfig()."""
        assert main(required_args(workspace, tmp_path, "relocalize")) == 0
        query = load_ppm(workspace / "queries" / "0.ppm")
        scene = load_splat_scene(workspace / "scene.gsplat")
        db = load_anchor_db(workspace / "anchors.map")
        result = relocalize(query, scene, db, ReferenceMatcher())
        save_result(tmp_path / "expected.json", result, query_id="0")
        assert (tmp_path / "r" / "0.json").read_bytes() == (tmp_path / "expected.json").read_bytes()

    def test_no_iterations_is_an_error(self, workspace, tmp_path, capsys):
        assert run_relocalize(workspace, tmp_path / "o", ["--max-iterations", "0"]) == 1
        assert capsys.readouterr().err == "error: max_iterations must be >= 1\n"


@pytest.fixture(scope="module")
def evaluated(workspace, tmp_path_factory):
    """Output directory of one `evaluate` run over one relocalized query."""
    results = tmp_path_factory.mktemp("results")
    out = tmp_path_factory.mktemp("eval")
    assert run_relocalize(workspace, results) == 0
    assert (
        main(["evaluate", "--results", str(results), "--gt", str(workspace / "gt.txt"),
              "--out-dir", str(out)])
        == 0
    )
    return out


class TestEvaluateCommand:
    def test_writes_all_reports(self, evaluated):
        for name in ("ate.csv", "recall.json", "histograms.json", "timing.json"):
            assert (evaluated / name).exists()

    def test_ate_csv_shape(self, evaluated):
        lines = (evaluated / "ate.csv").read_text().splitlines()
        assert lines[0] == "seq,rmse,std,mean,median,min,max"
        fields = lines[1].split(",")
        assert fields[0] == "seq1"
        assert float(fields[1]) < 0.02  # query taken at ground truth: tiny error

    def test_recall_structure(self, evaluated):
        payload = json.loads((evaluated / "recall.json").read_text())
        assert payload["frames"] == 1
        assert payload["statuses"] == {"converged": 1}
        assert payload["headline"]["trans_m"] == 0.10
        assert payload["headline"]["rot_deg"] == 1.0
        assert payload["headline"]["recall"] == 1.0
        assert len(payload["sweep"]) == 24  # 6 translation x 4 rotation thresholds

    def test_histogram_structure(self, evaluated):
        payload = json.loads((evaluated / "histograms.json").read_text())
        for key, top in (("translation_m", 0.5), ("rotation_deg", 2.0)):
            section = payload[key]
            assert len(section["edges"]) == 21
            assert section["edges"][-1] == top
            assert len(section["counts"]) == 20
            assert sum(section["counts"]) + section["overflow"] == 1

    def test_timing_structure(self, evaluated):
        payload = json.loads((evaluated / "timing.json").read_text())
        assert set(payload) == {"stage_mean_ms", "stage_count", "total_seconds"}
        assert set(payload["stage_mean_ms"]) == {"detect", "match", "pnp", "render"}
        assert payload["total_seconds"] > 0.0


def evaluate_args(tmp_path, results):
    """`evaluate` arguments over hand-written results.

    ``results`` holds one ``(iterations, sidecar)`` pair per query, where the
    sidecar is the per-stage totals in ms, or None for a result without one.
    """
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    gt = Trajectory()
    for index, (iterations, sidecar) in enumerate(results):
        gt.append(index, Pose.identity())
        payload = {
            "query_id": str(index),
            "status": "converged",
            "iterations": iterations,
            "final_pose": [float(v) for v in Pose.identity().as_array()],
        }
        (results_dir / f"{index}.json").write_text(json.dumps(payload))
        if sidecar is not None:
            (results_dir / f"{index}.timing.json").write_text(json.dumps(sidecar))
    save_trajectory(tmp_path / "gt.txt", gt)
    return ["evaluate", "--results", str(results_dir), "--gt", str(tmp_path / "gt.txt"),
            "--out-dir", str(tmp_path / "eval")]


def evaluate_timing(tmp_path, results):
    """``timing.json`` of `evaluate` over hand-written results (see `evaluate_args`)."""
    assert main(evaluate_args(tmp_path, results)) == 0
    return json.loads((tmp_path / "eval" / "timing.json").read_text())


def stages(detect, match, pnp, render):
    return {"detect": detect, "match": match, "pnp": pnp, "render": render}


class TestEvaluateTiming:
    def test_hand_case(self, tmp_path):
        """10/30/2/6 ms per iteration over 2 + 3 iterations: per-stage means, summed total."""
        payload = evaluate_timing(
            tmp_path, [(2, stages(20.0, 60.0, 4.0, 12.0)), (3, stages(30.0, 90.0, 6.0, 18.0))]
        )
        assert payload["stage_mean_ms"] == stages(10.0, 30.0, 2.0, 6.0)
        assert payload["stage_count"] == stages(5, 5, 5, 5)
        assert payload["total_seconds"] == pytest.approx(0.24, abs=1e-12)

    def test_mixed_iterations(self, tmp_path):
        """Only the iterations of results that have a sidecar count."""
        payload = evaluate_timing(
            tmp_path,
            [(1, stages(0.0, 10.0, 5.0, 0.0)), (1, stages(0.0, 20.0, 15.0, 40.0)), (3, None)],
        )
        assert payload["stage_mean_ms"]["match"] == pytest.approx(15.0)
        assert payload["stage_mean_ms"]["render"] == pytest.approx(20.0)
        assert payload["stage_count"] == stages(2, 2, 2, 2)
        assert payload["total_seconds"] == pytest.approx(0.09)

    def test_empty(self, tmp_path):
        payload = evaluate_timing(tmp_path, [(4, None)])
        assert payload["total_seconds"] == 0.0
        assert payload["stage_mean_ms"] == stages(0.0, 0.0, 0.0, 0.0)
        assert payload["stage_count"] == stages(0, 0, 0, 0)

    def test_sidecar_without_stage_totals_is_an_error(self, tmp_path, capsys):
        """A sidecar in the former per-iteration layout is reported, not misread."""
        assert main(evaluate_args(tmp_path, [(1, {"traces": []})])) == 1
        assert "0.timing.json: expected per-stage totals" in capsys.readouterr().err


class TestErrorHandling:
    @pytest.mark.parametrize("key", ["status", "final_pose", "iterations"])
    def test_evaluate_result_missing_key(self, tmp_path, capsys, key):
        args = evaluate_args(tmp_path, [(1, None)])
        result = tmp_path / "results" / "0.json"
        payload = json.loads(result.read_text())
        del payload[key]
        result.write_text(json.dumps(payload))
        assert main(args) == 1
        assert capsys.readouterr().err == f'error: 0.json: missing "{key}"\n'

    def test_evaluate_result_not_an_object(self, tmp_path, capsys):
        args = evaluate_args(tmp_path, [(1, None)])
        (tmp_path / "results" / "0.json").write_text("[]")
        assert main(args) == 1
        assert capsys.readouterr().err == "error: 0.json: expected a JSON object\n"

    def test_evaluate_two_results_for_one_frame(self, tmp_path, capsys):
        """``1.json`` and ``0001.json`` both name frame 1: the error names both files."""
        args = evaluate_args(tmp_path, [(1, None), (1, None)])
        payload = json.loads((tmp_path / "results" / "1.json").read_text())
        del payload["query_id"]  # the file name gives the frame
        (tmp_path / "results" / "0001.json").write_text(json.dumps(payload))
        assert main(args) == 1
        assert capsys.readouterr().err == "error: 0001.json and 1.json are both results for frame 1\n"

    @pytest.mark.parametrize("query_id", ["5", "q5"])
    def test_evaluate_result_without_ground_truth_frame(self, tmp_path, capsys, query_id):
        """A result whose frame the ground truth lacks, or that names no frame, is an error."""
        args = evaluate_args(tmp_path, [(1, None)])
        payload = json.loads((tmp_path / "results" / "0.json").read_text())
        payload["query_id"] = query_id
        (tmp_path / "results" / "0.json").write_text(json.dumps(payload))
        assert main(args) == 1
        want = f"error: 0.json: no ground-truth pose for query id {query_id!r}\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize(
        "key, value, want",
        [
            ("status", [1], '"status" must be a string, got [1]'),
            ("query_id", [1], '"query_id" must be a string or an integer, got [1]'),
            ("query_id", 1.5, '"query_id" must be a string or an integer, got 1.5'),
            ("final_pose", {"qw": 1.0},
             '"final_pose" must be a list of 7 numbers, got {"qw": 1.0}'),
            ("final_pose", [1.0, 0, 0, 0, 0, 0],
             '"final_pose" must be a list of 7 numbers, got [1.0, 0, 0, 0, 0, 0]'),
            ("final_pose", [1.0, 0, 0, 0, 0, 0, "0"],
             '"final_pose" must be a list of 7 numbers, got [1.0, 0, 0, 0, 0, 0, "0"]'),
            ("final_pose", [float("nan"), 0, 0, 0, 0, 0, 0],
             '"final_pose": quaternion must be finite'),
            ("iterations", "2", '"iterations" must be a non-negative integer, got "2"'),
            ("iterations", True, '"iterations" must be a non-negative integer, got true'),
            ("iterations", -1, '"iterations" must be a non-negative integer, got -1'),
        ],
        ids=["status list", "query_id list", "query_id float", "pose object", "short pose",
             "pose string", "pose NaN", "iterations string", "iterations bool",
             "iterations negative"],
    )
    def test_evaluate_wrongly_typed_result_value(self, tmp_path, capsys, key, value, want):
        """A result value of the wrong JSON type is an error line naming the file and key."""
        args = evaluate_args(tmp_path, [(1, stages(1.0, 2.0, 3.0, 4.0))])
        result = tmp_path / "results" / "0.json"
        payload = json.loads(result.read_text())
        payload[key] = value
        result.write_text(json.dumps(payload))
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: 0.json: {want}\n"

    @pytest.mark.parametrize(
        "value", ["abc", "5", None, [1.0]], ids=["text", "digits", "null", "list"]
    )
    def test_evaluate_non_numeric_sidecar_stage(self, tmp_path, capsys, value):
        """A stage total that is not a JSON number is an error line naming the sidecar."""
        args = evaluate_args(tmp_path, [(1, {**stages(1.0, 2.0, 3.0, 4.0), "pnp": value})])
        assert main(args) == 1
        want = f'error: 0.timing.json: "pnp" must be a number, got {json.dumps(value)}\n'
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("name", ["0.json", "0.timing.json"])
    def test_evaluate_invalid_json_names_the_file(self, tmp_path, capsys, name):
        args = evaluate_args(tmp_path, [(1, stages(1.0, 2.0, 3.0, 4.0))])
        (tmp_path / "results" / name).write_text('{"status": ')
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: {name}: invalid JSON (")

    def test_oracle_query_without_ground_truth_line(self, workspace, tmp_path, capsys):
        """The oracle matcher needs the query's frame among the --query-gt lines."""
        queries = tmp_path / "queries"
        queries.mkdir()
        (queries / "99.ppm").write_bytes((workspace / "queries" / "0.ppm").read_bytes())
        code = main(
            ["relocalize", "--scene", str(workspace / "scene.gsplat"),
             "--anchors", str(workspace / "anchors.map"),
             "--queries", str(queries), "--out", str(tmp_path / "o"),
             "--matcher", "oracle", "--query-gt", str(workspace / "gt.txt")]
        )
        assert code == 1
        want = "error: query '99': no ground-truth pose line for the oracle matcher\n"
        assert capsys.readouterr().err == want

    def test_missing_scene_file(self, workspace, tmp_path, capsys):
        code = main(
            ["relocalize", "--scene", str(tmp_path / "nope.gsplat"),
             "--anchors", str(workspace / "anchors.map"),
             "--queries", str(workspace / "queries"), "--out", str(tmp_path / "o"),
             "--matcher", "oracle", "--query-gt", str(workspace / "gt.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_v1_text_scene_file(self, workspace, tmp_path, capsys):
        """A scene in the old text format is refused with an error line, not a traceback."""
        scene = tmp_path / "v1.gsplat"
        scene.write_text("gsplat v1 1\nsky 0 0 0\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5\n")
        code = main(
            ["relocalize", "--scene", str(scene),
             "--anchors", str(workspace / "anchors.map"),
             "--queries", str(workspace / "queries"), "--out", str(tmp_path / "o"),
             "--matcher", "oracle", "--query-gt", str(workspace / "gt.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {scene}: a gsplat v1 text scene; convert it to gsplat v2 as README.md "
            "(File formats) shows\n"
        )
        assert not (tmp_path / "o").exists()

    def test_oracle_requires_ground_truth(self, workspace, tmp_path, capsys):
        code = main(
            ["relocalize", "--scene", str(workspace / "scene.gsplat"),
             "--anchors", str(workspace / "anchors.map"),
             "--queries", str(workspace / "queries"), "--out", str(tmp_path / "o"),
             "--matcher", "oracle"]
        )
        assert code == 1
        assert "query-gt" in capsys.readouterr().err

    def test_config_invalid_json_names_the_file(self, workspace, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"seed": ')
        args = [*required_args(workspace, tmp_path, "synth"), "--config", str(config)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: bad.json: invalid JSON (Expecting value")
        assert not (tmp_path / "s.gsplat").exists()

    def test_unknown_matcher_via_config(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"matcher": "bogus"}))
        code = main(
            ["relocalize", "--scene", str(workspace / "scene.gsplat"),
             "--anchors", str(workspace / "anchors.map"),
             "--queries", str(workspace / "queries"), "--out", str(tmp_path / "o"),
             "--config", str(config)]
        )
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_empty_queries_dir(self, workspace, tmp_path, capsys):
        empty = tmp_path / "queries"
        empty.mkdir()
        code = main(
            ["relocalize", "--scene", str(workspace / "scene.gsplat"),
             "--anchors", str(workspace / "anchors.map"),
             "--queries", str(empty), "--out", str(tmp_path / "o"),
             "--matcher", "reference"]
        )
        assert code == 1
        assert "no .ppm" in capsys.readouterr().err

    def test_evaluate_empty_results(self, workspace, tmp_path, capsys):
        empty = tmp_path / "results"
        empty.mkdir()
        code = main(
            ["evaluate", "--results", str(empty), "--gt", str(workspace / "gt.txt"),
             "--out-dir", str(tmp_path / "out")]
        )
        assert code == 1
        assert "no result JSON" in capsys.readouterr().err

    @staticmethod
    def relocalize_edited_map(workspace, tmp_path, edit):
        """Exit code of ``relocalize`` on a copy of the map file edited by ``edit``
        (bytes to bytes), and the copy."""
        anchors = tmp_path / "anchors.map"
        anchors.write_bytes(edit((workspace / "anchors.map").read_bytes()))
        code = main(
            ["relocalize", "--scene", str(workspace / "scene.gsplat"),
             "--anchors", str(anchors),
             "--queries", str(workspace / "queries"), "--out", str(tmp_path / "o")]
        )
        return code, anchors

    def test_truncated_anchor_map(self, workspace, tmp_path, capsys):
        """A map file that lost its last byte is an error line naming the map, not a traceback."""
        code, anchors = self.relocalize_edited_map(workspace, tmp_path, lambda raw: raw[:-1])
        assert code == 1
        size = 48 + 5 * (1600 + 7 * 320 * 240)
        assert capsys.readouterr().err == (
            f"error: {anchors}: header promises 5 anchors of 320x240 ({size} bytes after the "
            f"header), found {size - 1} bytes\n"
        )

    def test_v1_anchor_directory(self, workspace, tmp_path, capsys):
        """A map in the old directory layout is an error line that says to rebuild it."""
        old = tmp_path / "anchors"
        old.mkdir()
        (old / "index.json").write_text(json.dumps({"format": "anchordb v1"}))
        code = main(
            ["relocalize", "--scene", str(workspace / "scene.gsplat"), "--anchors", str(old),
             "--queries", str(workspace / "queries"), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {old}: a directory, as anchordb v1 maps were; "
            "rebuild it with `splatreloc build-anchors`\n"
        )

    @pytest.mark.parametrize(
        "flag, want",
        [
            ("--fx", "error: camera fx must be finite, got nan\n"),
            ("--cy", "error: camera cy must be finite, got nan\n"),
            ("--spacing", "error: anchor spacing must be positive and finite, got nan\n"),
        ],
        ids=["fx", "cy", "spacing"],
    )
    def test_build_anchors_rejects_nan(self, workspace, tmp_path, capsys, flag, want):
        """A NaN camera value or spacing is an error line, and no map is written."""
        assert main([*required_args(workspace, tmp_path, "build-anchors"), flag, "nan"]) == 1
        assert capsys.readouterr().err == want
        assert not (tmp_path / "a").exists()

    def test_non_finite_anchor_map_value(self, workspace, tmp_path, capsys):
        """A NaN camera value in the map file is an error line naming the map and value."""

        def nan_fx(raw: bytes) -> bytes:
            start = raw.index(b"\n") + 1
            return raw[:start] + np.array(np.nan, "<f8").tobytes() + raw[start + 8 :]

        code, anchors = self.relocalize_edited_map(workspace, tmp_path, nan_fx)
        assert code == 1
        assert capsys.readouterr().err == f"error: {anchors}: camera fx must be finite, got nan\n"


def required_args(workspace, tmp_path, command):
    """``command`` with only its required flags, reading the workspace, writing to tmp_path."""
    names = ("scene.gsplat", "gt.txt", "anchors.map", "queries")
    ws = {name: str(workspace / name) for name in names}
    return {
        "synth": ["synth", "--out", str(tmp_path / "s.gsplat"),
                  "--traj-out", str(tmp_path / "t.txt")],
        "build-anchors": ["build-anchors", "--scene", ws["scene.gsplat"],
                          "--trajectory", ws["gt.txt"], "--out", str(tmp_path / "a")],
        "relocalize": ["relocalize", "--scene", ws["scene.gsplat"], "--anchors", ws["anchors.map"],
                       "--queries", ws["queries"], "--out", str(tmp_path / "r")],
    }[command]


def with_config(tmp_path, args, settings):
    """``args`` plus ``--config`` naming a file that holds ``settings`` as JSON."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    return [*args, "--config", str(config)]


def evaluate_aligned(tmp_path, extra):
    """``ate.csv`` of `evaluate` over 4 results that are the truth moved by one rigid motion."""
    motion = Pose(quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.1), np.array([0.3, 0.0, 0.0]))
    gt = Trajectory()
    results = tmp_path / "results"
    results.mkdir(exist_ok=True)
    for index, position in enumerate(np.vstack([np.zeros(3), np.eye(3)])):
        pose = Pose(np.array([1.0, 0.0, 0.0, 0.0]), position)
        gt.append(index, pose)
        payload = {"status": "converged", "iterations": 1,
                   "final_pose": [float(v) for v in motion.compose(pose).as_array()]}
        (results / f"{index}.json").write_text(json.dumps(payload))
    save_trajectory(tmp_path / "gt.txt", gt)
    out = tmp_path / "eval"
    args = ["evaluate", "--results", str(results), "--gt", str(tmp_path / "gt.txt"),
            "--out-dir", str(out), *extra]
    assert main(args) == 0
    return (out / "ate.csv").read_text()


class TestConfigFile:
    @pytest.mark.parametrize(
        "command, settings, key",
        [
            ("relocalize", {"max_iteration": 1}, "max_iteration"),
            ("relocalize", {"n_gausians": 5}, "n_gausians"),
            ("build-anchors", {"fx": 300, "widht": 640}, "widht"),
            ("synth", {"seed": 5, "n-gausians": 50}, "n_gausians"),
        ],
    )
    def test_unknown_key_is_an_error(self, workspace, tmp_path, capsys, command, settings, key):
        """A key that names no flag exactly, a prefix of one included, stops the command."""
        args = with_config(tmp_path, required_args(workspace, tmp_path, command), settings)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == f'error: {tmp_path / "config.json"}: {command} has no setting "{key}"\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_flag_prefix_is_unknown_on_the_command_line(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            run_relocalize(workspace, tmp_path / "o", ["--max-iteration", "1"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("seed", [5.7, 5.0, "five", True])
    def test_seed_must_be_an_integer(self, workspace, tmp_path, capsys, seed):
        args = with_config(tmp_path, required_args(workspace, tmp_path, "synth"), {"seed": seed})
        assert main(args) == 1
        assert "argument --seed:" in capsys.readouterr().err
        assert not (tmp_path / "s.gsplat").exists()

    def test_file_value_has_the_flag_type(self, workspace, tmp_path):
        """A file's integer goes through the flag's own type: fx is a float, width an int."""
        args = required_args(workspace, tmp_path, "build-anchors")
        assert main(with_config(tmp_path, args, {"fx": 300, "width": 640, "height": 480})) == 0
        camera = load_anchor_db(tmp_path / "a").camera
        assert (camera.fx, camera.width, camera.height) == (300.0, 640, 480)

    def test_non_scalar_value_is_an_error(self, workspace, tmp_path, capsys):
        args = with_config(tmp_path, required_args(workspace, tmp_path, "synth"), {"seed": None})
        assert main(args) == 1
        assert 'setting "seed" is null' in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", "true", 1])
    def test_switch_takes_only_a_json_boolean(self, tmp_path, capsys, value):
        args = ["evaluate", "--results", str(tmp_path), "--gt", str(tmp_path / "gt.txt"),
                "--out-dir", str(tmp_path / "eval")]
        assert main(with_config(tmp_path, args, {"align": value})) == 1
        assert "argument --align: ignored explicit argument" in capsys.readouterr().err

    def test_align_true_is_the_align_flag(self, tmp_path):
        aligned = evaluate_aligned(tmp_path, ["--align"])
        assert evaluate_aligned(tmp_path, with_config(tmp_path, [], {"align": True})) == aligned
        assert evaluate_aligned(tmp_path, with_config(tmp_path, [], {"align": False})) != aligned
        assert float(aligned.splitlines()[1].split(",")[1]) < 1e-9

    def test_align_with_two_frames_is_an_error(self, tmp_path, capsys):
        """``evaluate --align`` over 2 results fails instead of scoring them unaligned."""
        assert main([*evaluate_args(tmp_path, [(1, None), (1, None)]), "--align"]) == 1
        assert capsys.readouterr().err == "error: alignment needs at least 3 frames, got 2\n"


#: Each subcommand's optional flags with their value type and default.  Many
#: flags take their name, type and default from a library dataclass, so this
#: table is what catches a library rename that would rename a user's flag.
OPTIONAL_FLAGS = {
    "synth": {
        "--config": (str, None),
        "--seed": (int, 0),
        "--n-gaussians": (int, 4000),
        "--extent": (float, 5.0),
        "--trajectory-length": (float, 12.0),
        "--anchor-spacing": (float, 3.0),
    },
    "build-anchors": {
        "--config": (str, None),
        "--spacing": (float, 3.0),
        "--fx": (float, 250.0),
        "--fy": (float, 250.0),
        "--cx": (float, 160.0),
        "--cy": (float, 120.0),
        "--width": (int, 320),
        "--height": (int, 240),
        "--near": (float, 0.1),
    },
    "relocalize": {
        "--config": (str, None),
        "--matcher": (str, "reference"),
        "--query-gt": (str, None),
        "--seed": (int, 0),
        "--oracle-n": (int, 150),
        "--noise": (float, 0.5),
        "--outlier-fraction": (float, 0.0),
        "--max-iterations": (int, 10),
        "--trans-eps": (float, 0.01),
        "--rot-eps": (float, 0.01),
        "--min-matches": (int, 12),
    },
    "evaluate": {
        "--config": (str, None),
        "--seq-name": (str, "seq1"),
        "--align": (bool, False),
        "--recall-trans": (float, 0.1),
        "--recall-rot": (float, 1.0),
    },
}

#: Each subcommand's required flags.
REQUIRED_FLAGS = {
    "synth": {"--out", "--traj-out"},
    "build-anchors": {"--scene", "--trajectory", "--out"},
    "relocalize": {"--scene", "--anchors", "--queries", "--out"},
    "evaluate": {"--results", "--gt", "--out-dir"},
}


class TestFlagTable:
    def subcommands(self):
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    def test_every_flag_keeps_its_name_type_and_default(self):
        optional, required = {}, {}
        for name, command in self.subcommands().items():
            optional[name], required[name] = {}, set()
            for action in command._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                (flag,) = action.option_strings
                if action.required:
                    required[name].add(flag)
                    continue
                # A switch (store_true) takes no value; its default is False.
                kind = bool if action.nargs == 0 else action.type or str
                optional[name][flag] = (kind, action.default)
                assert type(action.default) in (kind, type(None)), flag
        assert optional == OPTIONAL_FLAGS
        assert required == REQUIRED_FLAGS

    def test_matcher_choices(self):
        (matcher,) = (
            a for a in self.subcommands()["relocalize"]._actions if a.dest == "matcher"
        )
        assert matcher.choices == ("reference", "oracle")
