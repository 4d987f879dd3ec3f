"""Tests for the anchor database: descriptors, subsampling, retrieval, and I/O."""

import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatreloc import (
    AnchorDatabase,
    AnchorRecord,
    ReferenceView,
    SplatScene,
    Trajectory,
    TrajectoryTooShort,
    build_anchor_db,
    global_descriptor,
    load_anchor_db,
    load_depth_f32,
    load_ppm,
    look_at,
    render,
    retrieve,
    save_anchor_db,
)
from splatreloc import anchors
from splatreloc.anchors import _quantize_record
from splatreloc.geometry import Pose, quat_to_matrix

SKY = np.array([0.2, 0.3, 0.4])


def straight_trajectory(n: int, step: float = 1.0) -> Trajectory:
    """n poses along +x, `step` meters apart, all aimed at the origin."""
    poses = [look_at(np.array([step * i, 0.0, -10.0]), np.zeros(3)) for i in range(n)]
    return Trajectory(list(range(n)), poses)


@pytest.fixture(scope="module")
def dolly_queries(anchor_db, small_scene, cam):
    """Query renders 1.2 m (= 0.4 x spacing) behind each anchor.

    Backing away along the anchor's own optical axis keeps the anchor's
    content centered, so each query unambiguously resembles its source
    anchor rather than a neighbor.
    """
    queries = []
    for rec in anchor_db.records:
        forward = quat_to_matrix(rec.pose.rotation)[:, 2]
        pose = Pose(rec.pose.rotation, rec.pose.translation - 1.2 * forward)
        queries.append((rec.anchor_id, render(small_scene, pose, cam).rgb))
    return queries


class TestGlobalDescriptor:
    def test_shape_and_unit_norm(self, rng):
        """Descriptors are 192-dim unit vectors for arbitrary textured images."""
        for _ in range(100):
            descriptor = global_descriptor(rng.random((48, 64, 3)))
            assert descriptor.shape == (192,)
            assert abs(np.linalg.norm(descriptor) - 1.0) < 1e-9

    def test_deterministic(self, rng):
        """The same image always produces bit-identical descriptors."""
        image = rng.random((96, 128, 3))
        assert np.array_equal(global_descriptor(image), global_descriptor(image))

    def test_brightness_invariance(self, rng):
        """Halving brightness barely moves the descriptor (cosine > 0.95).

        Both halves are unit-normalized before concatenation, so a uniform
        intensity scale cancels almost exactly.
        """
        image = rng.random((96, 128, 3))
        cosine = float(global_descriptor(image) @ global_descriptor(0.5 * image))
        assert cosine > 0.95

    def test_different_images_differ(self, rng):
        """Independent random images give clearly distinct descriptors."""
        a = global_descriptor(rng.random((96, 128, 3)))
        b = global_descriptor(rng.random((96, 128, 3)))
        assert not np.allclose(a, b)


class TestBuildAnchorDb:
    def test_even_spacing_subsampling(self, cam):
        """10 poses 1 m apart with 3 m spacing keep frames 0, 3, 6, 9."""
        db = build_anchor_db(SplatScene(sky_color=SKY), straight_trajectory(10), cam, spacing=3.0)
        assert [rec.source_index for rec in db.records] == [0, 3, 6, 9]
        assert [rec.anchor_id for rec in db.records] == [0, 1, 2, 3]
        assert db.spacing == 3.0
        assert db.camera == cam

    def test_first_pose_is_always_kept(self, cam):
        db = build_anchor_db(SplatScene(sky_color=SKY), straight_trajectory(5), cam, spacing=2.5)
        assert db.records[0].source_index == 0

    def test_session_db_layout(self, anchor_db):
        """The shared fixture database has 5 anchors, 3 m apart along x."""
        assert len(anchor_db) == 5
        assert [rec.source_index for rec in anchor_db.records] == [0, 6, 12, 18, 24]
        xs = [rec.pose.translation[0] for rec in anchor_db.records]
        assert_allclose(xs, [-6.0, -3.0, 0.0, 3.0, 6.0], atol=1e-12)
        gaps = [
            np.linalg.norm(b.pose.translation - a.pose.translation)
            for a, b in zip(anchor_db.records, anchor_db.records[1:])
        ]
        assert all(0.5 * anchor_db.spacing <= g <= 2.0 * anchor_db.spacing for g in gaps)

    def test_stored_at_disk_precision(self, anchor_db, cam):
        """Records hold uint8 levels and float32 depth: at most 540 000 bytes for 320x240."""
        for rec in anchor_db.records:
            assert rec.rgb.dtype == np.uint8 and rec.rgb.shape == (cam.height, cam.width, 3)
            assert rec.depth.dtype == np.float32 and rec.depth.shape == (cam.height, cam.width)
            assert rec.rgb.nbytes + rec.depth.nbytes + rec.descriptor.nbytes <= 540_000

    def test_anchor_depth_has_valid_pixels(self, anchor_db):
        """Every anchor sees enough scene content: >= 20% non-sky depth pixels."""
        for rec in anchor_db.records:
            assert np.mean(rec.depth > 0) >= 0.2

    def test_descriptor_matches_stored_rgb(self, anchor_db):
        """The stored descriptor is exactly the descriptor of the stored RGB."""
        for rec in anchor_db.records:
            assert np.array_equal(rec.descriptor, global_descriptor(rec.rgb / 255.0))

    def test_nonpositive_spacing_raises(self, cam):
        with pytest.raises(ValueError, match="spacing"):
            build_anchor_db(SplatScene(sky_color=SKY), straight_trajectory(5), cam, spacing=0.0)

    @pytest.mark.parametrize("spacing", [np.nan, np.inf])
    def test_non_finite_spacing_raises(self, cam, spacing):
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            build_anchor_db(SplatScene(sky_color=SKY), straight_trajectory(5), cam, spacing=spacing)

    def test_empty_trajectory_raises(self, cam):
        with pytest.raises(TrajectoryTooShort, match="^trajectory is empty$"):
            build_anchor_db(SplatScene(sky_color=SKY), Trajectory(), cam, spacing=3.0)

    def test_single_pose_raises(self, cam):
        with pytest.raises(TrajectoryTooShort):
            build_anchor_db(SplatScene(sky_color=SKY), straight_trajectory(1), cam, spacing=3.0)

    def test_short_span_raises(self, cam):
        """A 2 m trajectory cannot support 3 m anchor spacing."""
        with pytest.raises(TrajectoryTooShort, match="span"):
            build_anchor_db(SplatScene(sky_color=SKY), straight_trajectory(3), cam, spacing=3.0)

    def test_sparse_trajectory_raises(self, cam):
        """Consecutive anchors farther than 2 x spacing apart are rejected."""
        trajectory = straight_trajectory(2, step=7.0)
        with pytest.raises(ValueError, match="gap"):
            build_anchor_db(SplatScene(sky_color=SKY), trajectory, cam, spacing=3.0)


def saved_files(db, root: Path) -> dict[str, bytes]:
    """Every file ``save_anchor_db`` writes for ``db``, by name."""
    save_anchor_db(root, db)
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


class TestBuildPool:
    """The anchors render in worker processes with the bits of an in-process render."""

    @pytest.mark.parametrize("cpus", [1, 3, 8])
    def test_matches_in_process_render(self, small_world, cam, monkeypatch, tmp_path, cpus):
        scene, trajectory = small_world
        monkeypatch.setattr(anchors, "_available_cpus", lambda: cpus)
        workers = []

        class CountingPool(anchors.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(anchors, "ProcessPoolExecutor", CountingPool)
        db = build_anchor_db(scene, trajectory, cam, spacing=3.0)

        expected = []
        for anchor_id, index in enumerate([0, 6, 12, 18, 24]):
            pose = trajectory.pose_for(index)
            out = render(scene, pose, cam)
            expected.append(_quantize_record(anchor_id, index, pose, out.rgb, out.depth))
        assert workers == [min(cpus, len(expected))]
        assert len(db) == len(expected)
        for got, want in zip(db.records, expected):
            assert (got.anchor_id, got.source_index) == (want.anchor_id, want.source_index)
            for name in ("rgb", "depth", "descriptor"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.pose.as_array().tobytes() == want.pose.as_array().tobytes()

        in_process = AnchorDatabase(camera=cam, spacing=3.0, records=expected)
        assert saved_files(db, tmp_path / "pool") == saved_files(in_process, tmp_path / "ref")

    def test_no_worker_outlives_the_build(self, small_world, cam):
        scene, trajectory = small_world
        build_anchor_db(scene, trajectory, cam, spacing=3.0)
        assert multiprocessing.active_children() == []

    def test_worker_failure_reaches_caller(self, small_world, cam, monkeypatch):
        """A render that raises in a worker raises in the caller, and the pool is gone."""

        def failing_render(*args, **kwargs):
            raise RuntimeError("render failed in worker")

        monkeypatch.setattr(anchors, "render", failing_render)
        scene, trajectory = small_world
        with pytest.raises(RuntimeError, match="render failed in worker"):
            build_anchor_db(scene, trajectory, cam, spacing=3.0)
        assert multiprocessing.active_children() == []


class TestRetrieve:
    def test_self_retrieval(self, anchor_db):
        """Each anchor's own RGB retrieves that anchor."""
        for rec in anchor_db.records:
            assert retrieve(rec.rgb / 255.0, anchor_db) == rec.anchor_id

    def test_nearby_query_finds_its_anchor(self, anchor_db, dolly_queries):
        """A view 0.4 x spacing from anchor k retrieves anchor k."""
        for anchor_id, rgb in dolly_queries:
            assert retrieve(rgb, anchor_db) == anchor_id

    def test_matches_exhaustive_similarity(self, anchor_db, dolly_queries):
        """retrieve() agrees with a brute-force cosine-similarity argmax."""
        for _, rgb in dolly_queries:
            q = global_descriptor(rgb)
            sims = [float(q @ rec.descriptor) for rec in anchor_db.records]
            assert retrieve(rgb, anchor_db) == int(np.argmax(sims))

    def test_query_must_be_floats_in_unit_range(self, anchor_db):
        """8-bit levels, unscaled floats and NaN raise; the levels / 255 are accepted."""
        rec = anchor_db.records[0]
        with_nan = rec.rgb / 255.0
        with_nan[5, 7, 1] = np.nan
        for bad in (rec.rgb, rec.rgb * 1.0, with_nan):
            with pytest.raises(ValueError, match=r"floating point in \[0, 1\]"):
                retrieve(bad, anchor_db)
        assert retrieve(rec.rgb / 255.0, anchor_db) == rec.anchor_id

    def test_empty_db_raises(self, cam, rng):
        db = AnchorDatabase(camera=cam, spacing=3.0, records=[])
        with pytest.raises(ValueError, match="empty"):
            retrieve(rng.random((240, 320, 3)), db)


class TestAnchorDbIO:
    def test_roundtrip_exact(self, anchor_db, tmp_path):
        """Save then load reproduces images and descriptors exactly.

        Pose rotations are compared with a 1e-12 tolerance: reconstruction
        re-normalizes the quaternion, which may shift the last bit.
        """
        save_anchor_db(tmp_path / "db", anchor_db)
        loaded = load_anchor_db(tmp_path / "db")
        assert loaded.spacing == anchor_db.spacing
        assert loaded.camera == anchor_db.camera
        assert len(loaded) == len(anchor_db)
        for orig, back in zip(anchor_db.records, loaded.records):
            assert back.anchor_id == orig.anchor_id
            assert back.source_index == orig.source_index
            for name in ("rgb", "depth", "descriptor"):
                got, want = getattr(back, name), getattr(orig, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
            assert np.array_equal(back.pose.translation, orig.pose.translation)
            assert_allclose(back.pose.rotation, orig.pose.rotation, atol=1e-12)

    def test_save_load_save_is_identical(self, anchor_db, tmp_path):
        """A reloaded map writes byte-identical files."""
        first = saved_files(anchor_db, tmp_path / "a")
        assert saved_files(load_anchor_db(tmp_path / "a"), tmp_path / "b") == first

    def test_save_is_deterministic(self, anchor_db, tmp_path):
        """Saving the same database twice writes byte-identical files."""
        save_anchor_db(tmp_path / "a", anchor_db)
        save_anchor_db(tmp_path / "b", anchor_db)
        for name in ["index.json", "anchor_000.ppm", "anchor_000.depth"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_index_structure(self, anchor_db, tmp_path):
        """index.json declares the format tag and references existing files."""
        save_anchor_db(tmp_path / "db", anchor_db)
        index = json.loads((tmp_path / "db" / "index.json").read_text())
        assert index["format"] == "anchordb v1"
        assert len(index["anchors"]) == len(anchor_db)
        for entry in index["anchors"]:
            assert (tmp_path / "db" / entry["rgb"]).exists()
            assert (tmp_path / "db" / entry["depth"]).exists()
            assert len(entry["descriptor"]) == 192

    def test_retrieval_survives_roundtrip(self, anchor_db, tmp_path):
        """Self-retrieval still works on a reloaded database."""
        save_anchor_db(tmp_path / "db", anchor_db)
        loaded = load_anchor_db(tmp_path / "db")
        for rec in loaded.records:
            assert retrieve(rec.rgb / 255.0, loaded) == rec.anchor_id

    def test_bad_format_tag_raises(self, tmp_path):
        bad = tmp_path / "db"
        bad.mkdir()
        (bad / "index.json").write_text(json.dumps({"format": "bogus"}))
        with pytest.raises(ValueError, match="anchor database"):
            load_anchor_db(bad)

    def test_missing_index_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_anchor_db(tmp_path / "nothing")

    def edited_index(self, anchor_db, root, edit):
        """Save the map to ``root``, then rewrite its index.json through ``edit``."""
        save_anchor_db(root, anchor_db)
        index = json.loads((root / "index.json").read_text())
        edit(index)
        (root / "index.json").write_text(json.dumps(index))

    def test_camera_is_saved_as_its_fields(self, anchor_db, tmp_path):
        save_anchor_db(tmp_path / "db", anchor_db)
        camera = json.loads((tmp_path / "db" / "index.json").read_text())["camera"]
        cam = anchor_db.camera
        assert camera == {
            "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
            "width": cam.width, "height": cam.height, "near": cam.near,
        }

    def test_missing_anchor_key_names_directory_and_key(self, anchor_db, tmp_path):
        root = tmp_path / "db"
        self.edited_index(anchor_db, root, lambda index: index["anchors"][1].pop("source_index"))
        with pytest.raises(ValueError, match=f'^{root}: anchor 1 is missing "source_index"$'):
            load_anchor_db(root)

    def test_missing_index_key_names_it(self, anchor_db, tmp_path):
        root = tmp_path / "db"
        self.edited_index(anchor_db, root, lambda index: index.pop("spacing"))
        with pytest.raises(ValueError, match=f'^{root}: index.json is missing "spacing"$'):
            load_anchor_db(root)

    def test_missing_camera_key_is_not_defaulted(self, anchor_db, tmp_path):
        """``near`` has a default in CameraIntrinsics, but a map must store it."""
        root = tmp_path / "db"
        self.edited_index(anchor_db, root, lambda index: index["camera"].pop("near"))
        with pytest.raises(ValueError, match=f'^{root}: camera is missing "near"$'):
            load_anchor_db(root)

    def test_unknown_camera_key_names_it(self, anchor_db, tmp_path):
        root = tmp_path / "db"
        self.edited_index(anchor_db, root, lambda index: index["camera"].update(skew=0.0))
        with pytest.raises(ValueError, match=f'^{root}: camera has unknown key "skew"$'):
            load_anchor_db(root)

    def test_camera_must_be_an_object(self, anchor_db, tmp_path):
        root = tmp_path / "db"
        self.edited_index(anchor_db, root, lambda index: index.update(camera=[250.0]))
        with pytest.raises(ValueError, match=f"^{root}: camera must be a JSON object$"):
            load_anchor_db(root)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda index: index["camera"].update(fx="250"),
             'camera "fx" must be a finite number, got "250"'),
            (lambda index: index["camera"].update(width=320.0),
             'camera "width" must be an integer, got 320.0'),
            (lambda index: index["camera"].update(near=float("nan")),
             'camera "near" must be a finite number, got NaN'),
            (lambda index: index["anchors"][1].update(rgb=5),
             'anchor 1 "rgb" must be a file name, got 5'),
            (lambda index: index["anchors"][1].update(id="1"),
             'anchor 1 "id" must be an integer, got "1"'),
            (lambda index: index["anchors"][0].update(source_index=True),
             'anchor 0 "source_index" must be an integer, got true'),
            (lambda index: index["anchors"][0]["pose"].__setitem__(6, None),
             r'anchor 0 "pose" must be a list of 7 finite numbers, got \[.*null\]'),
            (lambda index: index["anchors"][0]["pose"].pop(),
             r'anchor 0 "pose" must be a list of 7 finite numbers, got \[.*\]'),
            (lambda index: index["anchors"][2]["descriptor"].pop(),
             r'anchor 2 "descriptor" must be a list of 192 finite numbers, got \[.{76}\.\.\.'),
            (lambda index: index.update(spacing="3"),
             'index.json "spacing" must be a finite number, got "3"'),
            (lambda index: index.update(anchors={}),
             'index.json "anchors" must be a list, got {}'),
        ],
    )
    def test_wrongly_typed_value_names_its_key(self, anchor_db, tmp_path, edit, message):
        root = tmp_path / "db"
        self.edited_index(anchor_db, root, edit)
        with pytest.raises(ValueError, match=f"^{root}: {message}$"):
            load_anchor_db(root)


class TestStoredPrecision:
    """Records keep the map at the precision it is saved with."""

    def test_reference_view_has_the_float_bits(self, anchor_db, small_scene, cam, tmp_path):
        """A stored anchor's float view equals the quantized render and the saved files."""
        save_anchor_db(tmp_path / "db", anchor_db)
        for rec in anchor_db.records:
            out = render(small_scene, rec.pose, cam)
            view = ReferenceView.of_anchor(rec)
            want_rgb = np.clip(np.round(out.rgb * 255), 0, 255) / 255
            want_depth = out.depth.astype(np.float32).astype(np.float64)
            name = f"anchor_{rec.anchor_id:03d}"
            assert view.rgb.dtype == view.depth.dtype == np.float64
            assert view.rgb.tobytes() == want_rgb.tobytes()
            assert view.rgb.tobytes() == load_ppm(tmp_path / "db" / f"{name}.ppm").tobytes()
            assert view.depth.tobytes() == want_depth.tobytes()
            stored = load_depth_f32(tmp_path / "db" / f"{name}.depth")
            assert view.depth.tobytes() == stored.astype(np.float64).tobytes()
            assert view.pose is rec.pose

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rgb", np.zeros((24, 32, 3))),  # float64 image
            ("rgb", np.zeros((24, 32), np.uint8)),
            ("rgb", np.zeros((24, 32, 4), np.uint8)),
            ("rgb", [[[0, 0, 0]]]),
            ("depth", np.zeros((24, 32))),  # float64 depth
            ("depth", np.zeros((32, 24), np.float32)),
            ("descriptor", np.zeros(191)),
            ("descriptor", [0.0] * 192),
        ],
    )
    def test_bad_array_names_its_field(self, field, value):
        fields = dict(
            anchor_id=0, source_index=0, pose=Pose.identity(),
            rgb=np.zeros((24, 32, 3), np.uint8), depth=np.zeros((24, 32), np.float32),
            descriptor=np.zeros(192),
        )
        AnchorRecord(**fields)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            AnchorRecord(**fields)
