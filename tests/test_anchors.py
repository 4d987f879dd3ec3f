"""Tests for the anchor database: descriptors, subsampling, retrieval, and I/O."""

import dataclasses
import json
import multiprocessing
import re
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


def map_bytes(db, path: Path) -> bytes:
    """The bytes ``save_anchor_db`` writes for ``db``."""
    save_anchor_db(path, db)
    return path.read_bytes()


def record_start(raw: bytes, cam, i: int) -> int:
    """Offset of anchor ``i``'s record in the map file ``raw`` (module docstring layout)."""
    header = raw.index(b"\n") + 1
    return header + 48 + i * (1600 + 7 * cam.width * cam.height)


def patched(path: Path, offset: int, value: bytes) -> None:
    """Overwrite the map file at ``path`` with ``value`` at ``offset``."""
    raw = bytearray(path.read_bytes())
    raw[offset : offset + len(value)] = value
    path.write_bytes(bytes(raw))


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
        assert map_bytes(db, tmp_path / "pool.map") == map_bytes(in_process, tmp_path / "ref.map")

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
        """Save then load reproduces every bit, and each anchor id is its position."""
        save_anchor_db(tmp_path / "db.map", anchor_db)
        loaded = load_anchor_db(tmp_path / "db.map")
        assert loaded.spacing == anchor_db.spacing
        assert loaded.camera == anchor_db.camera
        assert len(loaded) == len(anchor_db)
        for position, (orig, back) in enumerate(zip(anchor_db.records, loaded.records)):
            assert back.anchor_id == orig.anchor_id == position
            assert back.source_index == orig.source_index
            for name in ("rgb", "depth", "descriptor"):
                got, want = getattr(back, name), getattr(orig, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
            assert back.pose.as_array().tobytes() == orig.pose.as_array().tobytes()

    def test_save_load_save_is_identical(self, anchor_db, tmp_path):
        """A reloaded map writes a byte-identical file."""
        first = map_bytes(anchor_db, tmp_path / "a.map")
        assert map_bytes(load_anchor_db(tmp_path / "a.map"), tmp_path / "b.map") == first

    def test_save_is_deterministic(self, anchor_db, tmp_path):
        """Saving the same database twice writes byte-identical files."""
        assert map_bytes(anchor_db, tmp_path / "a.map") == map_bytes(anchor_db, tmp_path / "b.map")

    def test_header_and_size(self, anchor_db, tmp_path):
        """The header names the format, count and image size; the size is exact."""
        head, _, body = map_bytes(anchor_db, tmp_path / "db.map").partition(b"\n")
        assert head == b"anchordb v2 5 320 240"
        assert len(body) == 48 + 5 * (1600 + 7 * 320 * 240)

    def test_records_are_laid_out_as_documented(self, anchor_db, cam, tmp_path):
        """Each record: source frame <i8, pose and descriptor <f8, RGB levels, depth <f4."""
        raw = map_bytes(anchor_db, tmp_path / "db.map")
        pixels = cam.width * cam.height
        for i, rec in enumerate(anchor_db.records):
            start = record_start(raw, cam, i)
            fields = [
                np.array(rec.source_index, "<i8"), rec.pose.as_array().astype("<f8"),
                rec.descriptor.astype("<f8"), rec.rgb, rec.depth.astype("<f4"),
            ]
            assert raw[start : start + 1600 + 7 * pixels] == b"".join(f.tobytes() for f in fields)

    def test_retrieval_survives_roundtrip(self, anchor_db, tmp_path):
        """Self-retrieval still works on a reloaded database."""
        save_anchor_db(tmp_path / "db.map", anchor_db)
        loaded = load_anchor_db(tmp_path / "db.map")
        for rec in loaded.records:
            assert retrieve(rec.rgb / 255.0, loaded) == rec.anchor_id

    def test_empty_map_roundtrips(self, cam, tmp_path):
        empty = AnchorDatabase(camera=cam, spacing=2.5, records=[])
        assert map_bytes(empty, tmp_path / "db.map").startswith(b"anchordb v2 0 320 240\n")
        loaded = load_anchor_db(tmp_path / "db.map")
        assert (loaded.camera, loaded.spacing, loaded.records) == (cam, 2.5, [])

    def test_save_and_load_take_str_or_path(self, anchor_db, tmp_path):
        first = map_bytes(anchor_db, tmp_path / "a.map")
        save_anchor_db(str(tmp_path / "b.map"), load_anchor_db(str(tmp_path / "a.map")))
        assert (tmp_path / "b.map").read_bytes() == first

    def test_bad_format_tag_raises(self, anchor_db, tmp_path):
        """A file that does not start with the ``anchordb v2`` line is refused."""
        body = map_bytes(anchor_db, tmp_path / "good.map").partition(b"\n")[2]
        bad = tmp_path / "db.map"
        for head in (b"anchordb v1 5 320 240\n", b"gsplat v2 5\n", b"anchordb  v2 5 320 240\n",
                     b"{\n", b"", b"anchordb v2 5 320 240"):
            bad.write_bytes(head + (body if head.endswith(b"\n") else b""))
            with pytest.raises(ValueError, match=f"^{bad}: not an anchordb v2 file"):
                load_anchor_db(bad)

    @pytest.mark.parametrize(
        "head",
        [b"anchordb v2 5 320", b"anchordb v2 5 320 240 1", b"anchordb v2 -5 320 240",
         b"anchordb v2 5.0 320 240", b"anchordb v2 0x5 320 240", b"anchordb v2 5 320.0 240",
         b"anchordb v2 5 320 -240", b"anchordb v2 5  320 240", b"anchordb v2 5 320 240\r",
         "anchordb v2 ٥ 320 240".encode()],
        ids=["no height", "extra field", "negative count", "float count", "hex count",
             "float width", "negative height", "double space", "CR", "non-ASCII digit"],
    )
    def test_bad_header(self, anchor_db, tmp_path, head):
        body = map_bytes(anchor_db, tmp_path / "good.map").partition(b"\n")[2]
        bad = tmp_path / "db.map"
        bad.write_bytes(head + b"\n" + body)
        with pytest.raises(ValueError, match=f"^{bad}: bad header "):
            load_anchor_db(bad)

    @pytest.mark.parametrize("change", [-1, -4, -(1600 + 7 * 320 * 240), -10**6, 1, 4, 1600])
    def test_truncated_or_trailing_bytes(self, anchor_db, tmp_path, change):
        path = tmp_path / "db.map"
        raw = map_bytes(anchor_db, path)
        path.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
        size = 48 + 5 * (1600 + 7 * 320 * 240)
        want = (
            f"{path}: header promises 5 anchors of 320x240 ({size} bytes after the header), "
            f"found {size + change} bytes"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_anchor_db(path)

    def test_huge_count_is_a_size_error_not_an_allocation(self, tmp_path):
        """A count or size far beyond the file's bytes is refused from the file size alone."""
        path = tmp_path / "db.map"
        path.write_bytes(b"anchordb v2 99999999999999 100000 100000\n" + bytes(48))
        size = 48 + 99999999999999 * (1600 + 7 * 10**10)
        with pytest.raises(ValueError, match=f"^{path}: header promises .* \\({size} bytes"):
            load_anchor_db(path)

    def test_camera_is_saved_as_its_fields(self, anchor_db, tmp_path):
        """The header holds the image size, then fx, fy, cx, cy, near and the spacing."""
        raw = map_bytes(anchor_db, tmp_path / "db.map")
        head, _, body = raw.partition(b"\n")
        cam = anchor_db.camera
        assert head.split()[3:] == [str(cam.width).encode(), str(cam.height).encode()]
        values = [cam.fx, cam.fy, cam.cx, cam.cy, cam.near, anchor_db.spacing]
        assert body[:48] == np.array(values, "<f8").tobytes()

    def test_missing_camera_key_is_not_defaulted(self, anchor_db, tmp_path):
        """``near`` has a default in CameraIntrinsics, but a map stores and reloads its own."""
        cam = dataclasses.replace(anchor_db.camera, near=0.25)
        db = AnchorDatabase(camera=cam, spacing=anchor_db.spacing, records=anchor_db.records)
        save_anchor_db(tmp_path / "db.map", db)
        assert load_anchor_db(tmp_path / "db.map").camera.near == 0.25

    @pytest.mark.parametrize(
        "where, offset, value, message",
        [
            ("camera", 0, np.nan, "camera fx must be finite, got nan"),
            ("camera", 24, np.inf, "camera cy must be finite, got inf"),
            ("camera", 32, np.nan, "camera near must be finite, got nan"),
            ("camera", 8, -250.0, "focal lengths must be positive"),
            ("camera", 40, np.nan, "anchor spacing must be positive and finite, got nan"),
            ("camera", 40, 0.0, "anchor spacing must be positive and finite, got 0.0"),
            (2, 8, np.nan, "anchor 2: quaternion must be finite"),
            (1, 8 + 8 * 5, np.inf, "anchor 1: pose translation must be finite"),
            (3, 64 + 8 * 100, np.nan, "anchor 3: descriptor must be finite"),
        ],
        ids=["fx", "cy", "near", "fy", "spacing NaN", "spacing 0", "quaternion", "translation",
             "descriptor"],
    )
    def test_bad_value_names_the_file(self, anchor_db, cam, tmp_path, where, offset, value,
                                      message):
        path = tmp_path / "db.map"
        raw = map_bytes(anchor_db, path)
        start = raw.index(b"\n") + 1 if where == "camera" else record_start(raw, cam, where)
        patched(path, start + offset, np.array(value, "<f8").tobytes())
        with pytest.raises(ValueError, match=f"^{path}: {message}$"):
            load_anchor_db(path)

    def test_zero_image_size_names_the_file(self, tmp_path):
        path = tmp_path / "db.map"
        values = np.array([250.0, 250.0, 160.0, 120.0, 0.1, 3.0], "<f8")
        path.write_bytes(b"anchordb v2 0 0 240\n" + values.tobytes())
        with pytest.raises(ValueError, match=f"^{path}: image dimensions must be positive$"):
            load_anchor_db(path)

    def test_missing_index_raises(self, tmp_path):
        """A map file that does not exist raises the OS error."""
        with pytest.raises(FileNotFoundError):
            load_anchor_db(tmp_path / "nothing.map")

    def test_v1_directory_is_refused(self, tmp_path):
        """An ``anchordb v1`` map was a directory; it is refused with what to do."""
        old = tmp_path / "anchors"
        old.mkdir()
        (old / "index.json").write_text(json.dumps({"format": "anchordb v1"}))
        want = (
            f"{old}: a directory, as anchordb v1 maps were; "
            "rebuild it with `splatreloc build-anchors`"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            load_anchor_db(old)

    def test_loaded_map_does_not_depend_on_the_file(self, anchor_db, cam, tmp_path):
        """The loaded arrays are in memory: rewriting or removing the file
        afterwards leaves the map as it was loaded."""
        path = tmp_path / "db.map"
        save_anchor_db(path, anchor_db)
        back = load_anchor_db(path)
        save_anchor_db(path, AnchorDatabase(camera=cam, spacing=1.0, records=[]))
        path.unlink()
        for orig, rec in zip(anchor_db.records, back.records):
            for name in ("rgb", "depth", "descriptor"):
                values = getattr(rec, name)
                assert not isinstance(values, np.memmap), name
                assert values.tobytes() == getattr(orig, name).tobytes(), name

    def test_save_over_the_file_a_live_map_came_from(self, anchor_db, tmp_path):
        """A map loaded from a file can be saved over that file, then read back."""
        path = tmp_path / "db.map"
        first = map_bytes(anchor_db, path)
        assert map_bytes(load_anchor_db(path), path) == first
        assert map_bytes(load_anchor_db(path), tmp_path / "again.map") == first

    def test_save_refuses_images_of_another_size(self, anchor_db, tmp_path):
        """Every record must have the camera's image size; nothing is written otherwise."""
        cam = dataclasses.replace(anchor_db.camera, width=32)
        db = AnchorDatabase(camera=cam, spacing=anchor_db.spacing, records=anchor_db.records)
        with pytest.raises(ValueError, match="^anchor 0 is 320x240, the camera 32x240$"):
            save_anchor_db(tmp_path / "db.map", db)
        assert not (tmp_path / "db.map").exists()


class TestStoredPrecision:
    """Records keep the map at the precision it is saved with."""

    def test_reference_view_has_the_float_bits(self, anchor_db, small_scene, cam, tmp_path):
        """A stored anchor's float view equals the quantized render and the saved file."""
        raw = map_bytes(anchor_db, tmp_path / "db.map")
        pixels = cam.width * cam.height
        for i, rec in enumerate(anchor_db.records):
            out = render(small_scene, rec.pose, cam)
            view = ReferenceView.of_anchor(rec)
            want_rgb = np.clip(np.round(out.rgb * 255), 0, 255) / 255
            want_depth = out.depth.astype(np.float32).astype(np.float64)
            rgb_start = record_start(raw, cam, i) + 1600
            stored_rgb = np.frombuffer(raw, np.uint8, 3 * pixels, rgb_start)
            stored_depth = np.frombuffer(raw, "<f4", pixels, rgb_start + 3 * pixels)
            assert view.rgb.dtype == view.depth.dtype == np.float64
            assert view.rgb.tobytes() == want_rgb.tobytes()
            assert view.rgb.ravel().tobytes() == (stored_rgb / 255.0).tobytes()
            assert view.depth.tobytes() == want_depth.tobytes()
            assert view.depth.ravel().tobytes() == stored_depth.astype(np.float64).tobytes()
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
            ("descriptor", np.full(192, np.nan)),
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
