"""End-to-end tests of the command-line interface (direct main() calls)."""

import json

import numpy as np
import pytest

from splatreloc import (
    generate_synthetic_scene,
    load_anchor_db,
    load_splat_scene,
    load_trajectory,
    render,
    save_ppm,
    save_splat_scene,
    save_trajectory,
)
from splatreloc.cli import main
from splatreloc.scene import DEFAULT_CAMERA


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scene, trajectory, anchors, and one query image, built via the CLI."""
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
    anchors_dir = root / "anchors"
    assert (
        main(
            [
                "build-anchors",
                "--scene", str(scene_path),
                "--trajectory", str(traj_path),
                "--out", str(anchors_dir),
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
            "--anchors", str(workspace / "anchors"),
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


class TestBuildAnchors:
    def test_database_reloads(self, workspace):
        db = load_anchor_db(workspace / "anchors")
        assert len(db) == 5
        assert [rec.source_index for rec in db.records] == [0, 6, 12, 18, 24]
        assert (workspace / "anchors" / "index.json").exists()

    def test_spacing_flag(self, workspace, tmp_path):
        assert (
            main(["build-anchors", "--scene", str(workspace / "scene.gsplat"),
                  "--trajectory", str(workspace / "gt.txt"),
                  "--out", str(tmp_path / "a"), "--spacing", "6.0"])
            == 0
        )
        db = load_anchor_db(tmp_path / "a")
        assert [rec.source_index for rec in db.records] == [0, 12, 24]


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
        assert len(timing["traces"]) == payload["iterations"]

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


class TestErrorHandling:
    def test_missing_scene_file(self, workspace, tmp_path, capsys):
        code = main(
            ["relocalize", "--scene", str(tmp_path / "nope.gsplat"),
             "--anchors", str(workspace / "anchors"),
             "--queries", str(workspace / "queries"), "--out", str(tmp_path / "o"),
             "--matcher", "oracle", "--query-gt", str(workspace / "gt.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_oracle_requires_ground_truth(self, workspace, tmp_path, capsys):
        code = main(
            ["relocalize", "--scene", str(workspace / "scene.gsplat"),
             "--anchors", str(workspace / "anchors"),
             "--queries", str(workspace / "queries"), "--out", str(tmp_path / "o"),
             "--matcher", "oracle"]
        )
        assert code == 1
        assert "query-gt" in capsys.readouterr().err

    def test_unknown_matcher_via_config(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"matcher": "bogus"}))
        code = main(
            ["relocalize", "--scene", str(workspace / "scene.gsplat"),
             "--anchors", str(workspace / "anchors"),
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
             "--anchors", str(workspace / "anchors"),
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
