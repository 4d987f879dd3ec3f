"""Gaussian primitives, scene file format, and the synthetic scene generator."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest

from splatreloc import (
    SplatFormatError,
    SplatScene,
    SyntheticSceneConfig,
    generate_synthetic_scene,
    load_splat_scene,
    save_splat_scene,
)
from splatreloc.geometry import quat_normalize, quat_to_matrix
from splatreloc.renderer import _world_covariances
from splatreloc.scene import DEFAULT_CAMERA, OPACITY_RANGE, SCALE_RANGE

from conftest import random_unit_quaternion


def random_scene(rng: np.random.Generator, n: int, sky=(0.0, 0.0, 0.0)) -> SplatScene:
    return SplatScene(
        means=rng.normal(size=(n, 3)),
        quats=np.array([random_unit_quaternion(rng) for _ in range(n)]).reshape(n, 4),
        scales=rng.uniform(0.05, 0.5, size=(n, 3)),
        opacities=rng.uniform(0.2, 1.0, size=n),
        colors=rng.uniform(0.0, 1.0, size=(n, 3)),
        sky_color=sky,
    )


def one_gaussian(**overrides) -> SplatScene:
    """A one-Gaussian scene with valid defaults, some arrays replaced."""
    arrays = {
        "means": np.zeros((1, 3)),
        "quats": np.array([[1.0, 0.0, 0.0, 0.0]]),
        "scales": np.ones((1, 3)),
        "opacities": np.array([0.5]),
        "colors": np.zeros((1, 3)),
    }
    arrays.update(overrides)
    return SplatScene(**arrays)


def read_v2(path) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Header line, sky and (count, 14) records of a ``gsplat v2`` file.

    Read without the loader, so tests see the bytes the saver wrote.
    """
    header, body = Path(path).read_bytes().split(b"\n", 1)
    values = np.frombuffer(body, dtype="<f8")
    return header, values[:3], values[3:].reshape(-1, 14)


def write_v2(path, sky, records) -> None:
    """A ``gsplat v2`` file of the given sky and records, written without the saver."""
    records = np.asarray(records, dtype="<f8").reshape(-1, 14)
    body = np.asarray(sky, dtype="<f8").tobytes() + records.tobytes()
    Path(path).write_bytes(f"gsplat v2 {len(records)}\n".encode() + body)


# ===========================================================================
# Per-Gaussian rules and covariances, on SplatScene arrays
# ===========================================================================


class TestGaussian3D:
    def test_covariance_construction(self, rng):
        """Batch covariances equal R diag(s^2) R^T computed independently."""
        scene = random_scene(rng, 20)
        covariances = _world_covariances(scene.quats, scene.scales)
        for quat, scale, cov in zip(scene.quats, scene.scales, covariances):
            R = quat_to_matrix(quat)
            expected = R @ np.diag(scale**2) @ R.T
            np.testing.assert_allclose(cov, expected, atol=1e-12)

    def test_covariance_symmetric_positive_definite(self, rng):
        scene = random_scene(rng, 10)
        for cov in _world_covariances(scene.quats, scene.scales):
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_covariance_eigenvalues_are_squared_scales(self, rng):
        scene = random_scene(rng, 1)
        cov = _world_covariances(scene.quats, scene.scales)[0]
        eigvals = np.sort(np.linalg.eigvalsh(cov))
        np.testing.assert_allclose(eigvals, np.sort(scene.scales[0] ** 2), rtol=1e-9)

    def test_non_positive_scale_raises(self):
        with pytest.raises(ValueError, match="scale"):
            one_gaussian(scales=np.array([[0.1, 0.0, 0.1]]))

    @pytest.mark.parametrize("opacity", [0.0, -0.1, 1.5])
    def test_bad_opacity_raises(self, opacity):
        with pytest.raises(ValueError, match="opacity"):
            one_gaussian(opacities=np.array([opacity]))

    def test_out_of_range_color_raises(self):
        with pytest.raises(ValueError, match="color"):
            one_gaussian(colors=np.array([[0.5, 1.2, 0.0]]))


# ===========================================================================
# Scene container
# ===========================================================================


class TestSplatScene:
    def test_arrays_match_gaussians(self, rng):
        means = rng.normal(size=(7, 3))
        opacities = rng.uniform(0.2, 1.0, size=7)
        scene = SplatScene(
            means, np.tile([1.0, 0.0, 0.0, 0.0], (7, 1)), np.ones((7, 3)), opacities,
            np.zeros((7, 3)), sky_color=np.array([0.1, 0.2, 0.3]),
        )
        arrays = scene.arrays()
        assert list(arrays) == ["means", "quats", "scales", "opacities", "colors"]
        assert arrays["means"].shape == (7, 3)
        np.testing.assert_allclose(arrays["means"][3], means[3])
        np.testing.assert_allclose(arrays["opacities"][5], opacities[5])

    def test_bad_sky_color_raises(self):
        with pytest.raises(ValueError, match="sky"):
            SplatScene(sky_color=np.array([0.1, 1.2, 0.3]))
        with pytest.raises(ValueError, match="sky"):
            SplatScene(sky_color=np.array([0.1, np.nan, 0.3]))

    def test_arrays_are_read_only(self, rng):
        scene = random_scene(rng, 3, sky=(0.1, 0.2, 0.3))
        for name, values in [*scene.arrays().items(), ("sky_color", scene.sky_color)]:
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.5
            with pytest.raises(AttributeError):
                setattr(scene, name, values.copy())

    def test_construction_copies_its_inputs(self):
        colors = np.array([[1.0, 0.0, 0.0]])
        scene = one_gaussian(colors=colors)
        colors[0] = [0.0, 0.0, 1.0]
        np.testing.assert_array_equal(scene.colors, [[1.0, 0.0, 0.0]])

    def test_quaternions_normalized_like_quat_normalize(self, rng):
        """Every row, bit for bit, including non-unit and negative-w input."""
        quats = rng.normal(size=(2000, 4)) * rng.uniform(0.01, 100.0, size=(2000, 1))
        n = len(quats)
        scene = SplatScene(
            np.zeros((n, 3)), quats, np.ones((n, 3)), np.full(n, 0.5), np.zeros((n, 3))
        )
        expected = np.array([quat_normalize(q) for q in quats])
        assert scene.quats.tobytes() == expected.tobytes()
        assert np.all(scene.quats[:, 0] >= 0.0)

    def test_first_bad_gaussian_is_named(self):
        scales = np.ones((4, 3))
        scales[2, 1] = -1.0
        opacities = np.array([0.5, 0.5, 0.5, 2.0])
        with pytest.raises(ValueError, match=r"^record 2: scale must be positive$"):
            SplatScene(
                np.zeros((4, 3)), np.tile([1.0, 0, 0, 0], (4, 1)), scales, opacities,
                np.zeros((4, 3)),
            )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"means": np.array([[0.0, np.inf, 0.0]])}, "non-finite value"),
            ({"quats": np.array([[np.nan, 0.0, 0.0, 0.0]])}, "non-finite value"),
            ({"quats": np.zeros((1, 4))}, "quaternion has near-zero norm"),
            ({"opacities": np.array([np.nan])}, "non-finite value"),
        ],
    )
    def test_other_rules(self, overrides, message):
        with pytest.raises(ValueError, match=f"^record 0: {message}$"):
            one_gaussian(**overrides)

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="means must have shape"):
            one_gaussian(means=np.zeros((2, 3)))

    def test_empty_scene(self):
        scene = SplatScene(sky_color=(0.1, 0.2, 0.3))
        assert len(scene) == 0
        assert [a.shape for a in scene.arrays().values()] == [(0, 3), (0, 4), (0, 3), (0,), (0, 3)]


# ===========================================================================
# Scene file format
# ===========================================================================


class TestSceneFileFormat:
    GOOD = [0.0, 0.0, 5.0, 1.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.1, 0.8, 0.5, 0.5, 0.5]

    def make_scene(self, n=5, seed=1):
        rng = np.random.default_rng(seed)
        return random_scene(rng, n, sky=np.array([0.2, 0.4, 0.6]))

    def test_roundtrip_preserves_fields(self, tmp_path):
        scene = self.make_scene()
        path = tmp_path / "scene.gsplat"
        save_splat_scene(path, scene)
        back = load_splat_scene(path)
        assert len(back) == len(scene)
        np.testing.assert_array_equal(back.sky_color, scene.sky_color)
        np.testing.assert_array_equal(back.means, scene.means)
        # the loader re-canonicalizes the quaternion, which may move the
        # last ulp; everything else survives the float64 records exactly
        np.testing.assert_allclose(back.quats, scene.quats, atol=1e-12)
        np.testing.assert_array_equal(back.scales, scene.scales)
        np.testing.assert_array_equal(back.opacities, scene.opacities)
        np.testing.assert_array_equal(back.colors, scene.colors)

    def test_save_is_deterministic(self, tmp_path):
        scene = self.make_scene(seed=2)
        p1, p2 = tmp_path / "a.gsplat", tmp_path / "b.gsplat"
        save_splat_scene(p1, scene)
        save_splat_scene(p2, scene)
        assert p1.read_bytes() == p2.read_bytes()

    def test_golden_bytes_of_one_gaussian(self, tmp_path):
        """Header line, then sky and the record as little-endian float64, in field order."""
        scene = SplatScene(
            means=[[1.0, -2.0, 3.5]], quats=[[1.0, 0.0, 0.0, 0.0]], scales=[[0.25, 0.5, 2.0]],
            opacities=[0.75], colors=[[0.0, 0.5, 1.0]], sky_color=[0.125, 0.25, 1.0],
        )
        path = tmp_path / "scene.gsplat"
        save_splat_scene(path, scene)
        values = (0.125, 0.25, 1.0, 1.0, -2.0, 3.5, 1.0, 0.0, 0.0, 0.0, 0.25, 0.5, 2.0, 0.75,
                  0.0, 0.5, 1.0)
        golden = b"gsplat v2 1\n" + struct.pack("<17d", *values)
        assert path.read_bytes() == golden
        assert golden[12:20] == bytes.fromhex("000000000000c03f")  # 0.125
        back = load_splat_scene(path)
        assert [a.tolist() for a in back.arrays().values()] == [
            a.tolist() for a in scene.arrays().values()
        ]
        assert back.sky_color.tolist() == [0.125, 0.25, 1.0]

    def test_empty_scene_is_header_and_sky(self, tmp_path):
        path = tmp_path / "scene.gsplat"
        save_splat_scene(path, SplatScene(sky_color=(0.1, 0.2, 0.3)))
        assert path.read_bytes() == b"gsplat v2 0\n" + struct.pack("<3d", 0.1, 0.2, 0.3)
        back = load_splat_scene(path)
        assert len(back) == 0
        assert back.sky_color.tolist() == [0.1, 0.2, 0.3]

    def test_generated_scene_loads_bit_for_bit(self, tmp_path):
        """The loaded arrays are the saved records; quaternions go through
        ``quat_normalize`` one row at a time, as ``SplatScene`` promises."""
        scene, _ = generate_synthetic_scene(4, SyntheticSceneConfig(n_gaussians=300))
        path = tmp_path / "scene.gsplat"
        save_splat_scene(path, scene)
        header, sky, records = read_v2(path)
        assert header == b"gsplat v2 300"
        back = load_splat_scene(path)
        assert back.sky_color.tobytes() == sky.tobytes()
        expected = {
            "means": records[:, 0:3],
            "quats": np.array([quat_normalize(q) for q in records[:, 3:7]]),
            "scales": records[:, 7:10],
            "opacities": records[:, 10],
            "colors": records[:, 11:14],
        }
        for name, values in back.arrays().items():
            assert values.dtype == np.float64 and values.shape == expected[name].shape, name
            assert values.tobytes() == np.ascontiguousarray(expected[name]).tobytes(), name

    def test_save_load_save_keeps_all_but_quaternion_bytes(self, tmp_path):
        """Every value but the quaternion survives save -> load -> save byte for
        byte.  The loader re-normalizes each quaternion, which can move its
        last bit, so those columns must equal ``quat_normalize`` of each row."""
        scene, _ = generate_synthetic_scene(5, SyntheticSceneConfig(n_gaussians=200))
        first, second = tmp_path / "a.gsplat", tmp_path / "b.gsplat"
        save_splat_scene(first, scene)
        save_splat_scene(second, load_splat_scene(first))
        header_a, sky_a, records_a = read_v2(first)
        header_b, sky_b, records_b = read_v2(second)
        assert header_b == header_a and sky_b.tobytes() == sky_a.tobytes()
        others = [0, 1, 2, *range(7, 14)]
        assert records_b[:, others].tobytes() == records_a[:, others].tobytes()
        reference_quats = np.array([quat_normalize(q) for q in records_a[:, 3:7]])
        assert records_b[:, 3:7].tobytes() == reference_quats.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 1000])
    def test_roundtrip_at_every_size(self, tmp_path, n):
        """The body reshapes to exactly n records, for empty, one and many."""
        scene = self.make_scene(n=n, seed=n)
        path = tmp_path / "scene.gsplat"
        save_splat_scene(path, scene)
        assert path.stat().st_size == len(f"gsplat v2 {n}\n") + 8 * (3 + 14 * n)
        back = load_splat_scene(path)
        assert len(back) == n
        for name in ["means", "scales", "opacities", "colors"]:
            assert getattr(back, name).tobytes() == getattr(scene, name).tobytes(), name
        np.testing.assert_allclose(back.quats, scene.quats, atol=1e-12)

    @pytest.mark.parametrize("as_path", [str, Path], ids=["str", "Path"])
    def test_save_and_load_take_str_or_path(self, tmp_path, as_path):
        scene = self.make_scene(n=3)
        path = as_path(tmp_path / "scene.gsplat")
        save_splat_scene(path, scene)
        assert load_splat_scene(path).means.tobytes() == scene.means.tobytes()

    @pytest.mark.parametrize("name", ["means", "quats", "scales", "opacities", "colors"])
    def test_record_columns_map_to_arrays(self, tmp_path, name):
        """Each array takes its own columns of the record, in v1's field order."""
        columns = {"means": [0, 1, 2], "quats": [3, 4, 5, 6], "scales": [7, 8, 9],
                   "opacities": [10], "colors": [11, 12, 13]}[name]
        record = [0.5, 1.5, 2.5, 0.5, 0.5, 0.5, 0.5, 0.125, 0.25, 0.375, 0.625, 0.25, 0.5, 0.75]
        path = tmp_path / "scene.gsplat"
        write_v2(path, [0.0, 0.0, 0.0], [record])
        loaded = getattr(load_splat_scene(path), name)
        assert loaded.reshape(-1).tolist() == [record[c] for c in columns]

    def test_extreme_means_survive_bit_for_bit(self, tmp_path):
        """-0.0, a subnormal and the largest double keep their exact bits."""
        means = np.array([[-0.0, 5e-324, 1.7976931348623157e308], [1e-300, -2.5e-310, -1e308]])
        scene = SplatScene(
            means=means, quats=np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), scales=np.ones((2, 3)),
            opacities=[0.5, 1.0], colors=np.zeros((2, 3)),
        )
        path = tmp_path / "scene.gsplat"
        save_splat_scene(path, scene)
        back = load_splat_scene(path)
        assert back.means.tobytes() == means.tobytes()
        assert np.signbit(back.means[0, 0])

    def test_loaded_scene_does_not_depend_on_the_file(self, tmp_path):
        """The loaded arrays are read-only copies: rewriting or removing the
        file afterwards leaves the scene as it was loaded."""
        scene = self.make_scene(n=50)
        path = tmp_path / "scene.gsplat"
        save_splat_scene(path, scene)
        back = load_splat_scene(path)
        expected = {name: values.copy() for name, values in back.arrays().items()}
        save_splat_scene(path, SplatScene())
        path.unlink()
        for name, values in back.arrays().items():
            assert not values.flags.writeable, name
            assert not isinstance(values, np.memmap) and values.base is None, name
            assert values.tobytes() == expected[name].tobytes(), name

    def test_save_over_a_larger_file_truncates_it(self, tmp_path):
        path = tmp_path / "scene.gsplat"
        save_splat_scene(path, self.make_scene(n=100))
        small = self.make_scene(n=2, seed=3)
        save_splat_scene(path, small)
        assert path.stat().st_size == len(b"gsplat v2 2\n") + 8 * (3 + 14 * 2)
        assert load_splat_scene(path).colors.tobytes() == small.colors.tobytes()

    def test_huge_count_is_a_size_error_not_an_allocation(self, tmp_path):
        """A count far beyond the file's bytes is refused from the file size alone."""
        path = tmp_path / "scene.gsplat"
        path.write_bytes(b"gsplat v2 99999999999999\n" + struct.pack("<17d", 0, 0, 0, *self.GOOD))
        with pytest.raises(SplatFormatError) as got:
            load_splat_scene(path)
        size = 8 * (3 + 14 * 99999999999999)
        assert str(got.value) == (
            f"{path}: header promises 99999999999999 records ({size} bytes after the header), "
            "found 136 bytes"
        )

    @pytest.mark.parametrize("change", [-1, -8, -8 * 14, 1, 8, 8 * 14])
    def test_truncated_or_trailing_bytes(self, tmp_path, change):
        path = tmp_path / "scene.gsplat"
        write_v2(path, [0.0, 0.0, 0.0], [self.GOOD, self.GOOD])
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + bytes(change))
        found = 8 * (3 + 14 * 2) + change
        with pytest.raises(SplatFormatError) as got:
            load_splat_scene(path)
        assert str(got.value) == (
            f"{path}: header promises 2 records (248 bytes after the header), found {found} bytes"
        )

    @pytest.mark.parametrize(
        "count", [b"-1", b"x", b"1.0", b"1e3", b"+1", b"", b"0x1", "١".encode()]
    )
    def test_bad_count(self, tmp_path, count):
        path = tmp_path / "scene.gsplat"
        path.write_bytes(b"gsplat v2 " + count + b"\n" + struct.pack("<17d", 0, 0, 0, *self.GOOD))
        with pytest.raises(SplatFormatError) as got:
            load_splat_scene(path)
        assert str(got.value) == f"{path}: bad header count {count.decode()!r}"

    @pytest.mark.parametrize(
        "head",
        [b"", b"gsplat v2 0", b"gsplat v3 0\n", b"GSPLAT v2 0\n", b"gsplat  v2 0\n",
         b"gsplat v2 0 0\n", b"gsplat\n", b"\x00" * 100],
        ids=["empty", "no-newline", "v3", "upper-case", "two-spaces", "extra-field", "magic-only",
             "nul-bytes"],
    )
    def test_bad_header(self, tmp_path, head):
        path = tmp_path / "scene.gsplat"
        path.write_bytes(head + (struct.pack("<3d", 0, 0, 0) if head.endswith(b"\n") else b""))
        with pytest.raises(SplatFormatError, match=f"^{re.escape(str(path))}: bad header b"):
            load_splat_scene(path)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (0, np.nan, "non-finite value"),
            (5, np.inf, "non-finite value"),
            (3, 0.0, "quaternion has near-zero norm"),
            (8, 0.0, "scale must be positive"),
            (10, 1.5, "opacity must lie in (0, 1]"),
            (10, 0.0, "opacity must lie in (0, 1]"),
            (12, -0.5, "color must lie in [0, 1]"),
        ],
    )
    def test_first_bad_record_is_named(self, tmp_path, column, value, message):
        records = np.array([self.GOOD] * 4)
        records[1, column] = value
        records[3, 10] = 2.0  # a later bad record is not the one reported
        path = tmp_path / "scene.gsplat"
        write_v2(path, [0.0, 0.0, 0.0], records)
        with pytest.raises(SplatFormatError) as got:
            load_splat_scene(path)
        assert str(got.value) == f"{path}: record 1: {message}"

    @pytest.mark.parametrize("sky", [[0.0, 0.0, 1.5], [-0.1, 0.0, 0.0], [0.0, np.nan, 0.0]])
    def test_out_of_range_sky(self, tmp_path, sky):
        path = tmp_path / "scene.gsplat"
        write_v2(path, sky, [self.GOOD])
        with pytest.raises(SplatFormatError) as got:
            load_splat_scene(path)
        assert str(got.value) == f"{path}: sky color must lie in [0, 1]"

    @pytest.mark.parametrize(
        "text",
        [
            "gsplat v1 1\nsky 0 0 0\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5\n",
            "\n  gsplat\tv1 0\n",
            "gsplat v1 0\r\nsky 0.1 0.2 0.3\r\n",
            "gsplat v1 1\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5\n",
        ],
        ids=["with-sky", "blank-first-line", "crlf", "no-sky-line"],
    )
    def test_v1_text_file_is_refused(self, tmp_path, text):
        path = tmp_path / "scene.gsplat"
        path.write_text(text)
        with pytest.raises(SplatFormatError) as got:
            load_splat_scene(path)
        assert str(got.value) == (
            f"{path}: a gsplat v1 text scene; convert it to gsplat v2 as README.md "
            "(File formats) shows"
        )


# ===========================================================================
# Synthetic scene generator
# ===========================================================================


class TestSyntheticSceneGenerator:
    def test_deterministic(self):
        config = SyntheticSceneConfig(n_gaussians=100)
        scene_a, traj_a = generate_synthetic_scene(3, config)
        scene_b, traj_b = generate_synthetic_scene(3, config)
        np.testing.assert_array_equal(
            scene_a.arrays()["means"], scene_b.arrays()["means"]
        )
        np.testing.assert_array_equal(
            scene_a.arrays()["colors"], scene_b.arrays()["colors"]
        )
        for pa, pb in zip(traj_a.poses, traj_b.poses):
            np.testing.assert_array_equal(pa.as_array(), pb.as_array())

    def test_different_seeds_differ(self):
        config = SyntheticSceneConfig(n_gaussians=100)
        scene_a, _ = generate_synthetic_scene(0, config)
        scene_b, _ = generate_synthetic_scene(1, config)
        assert not np.array_equal(scene_a.arrays()["means"], scene_b.arrays()["means"])

    def test_parameter_bounds(self):
        config = SyntheticSceneConfig(n_gaussians=200, extent=4.0)
        scene, _ = generate_synthetic_scene(5, config)
        arrays = scene.arrays()
        assert np.all(np.abs(arrays["means"]) <= 4.0)
        assert np.all(arrays["scales"] >= SCALE_RANGE[0])
        assert np.all(arrays["scales"] <= SCALE_RANGE[1])
        assert np.all(arrays["opacities"] >= OPACITY_RANGE[0])
        assert np.all(arrays["opacities"] <= OPACITY_RANGE[1])

    def test_trajectory_spacing_and_length(self):
        config = SyntheticSceneConfig(
            n_gaussians=200, trajectory_length=12.0, anchor_spacing=3.0
        )
        _, traj = generate_synthetic_scene(2, config)
        assert traj.path_length() == pytest.approx(12.0, abs=1e-9)
        pts = np.array([p.translation for p in traj.poses])
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        np.testing.assert_allclose(steps, 0.5, atol=1e-9)  # spacing / 6

    def test_scene_visible_from_every_pose(self):
        """Brute-force frustum count: enough gaussian centers project into
        every trajectory camera."""
        config = SyntheticSceneConfig(n_gaussians=300)
        scene, traj = generate_synthetic_scene(11, config)
        cam = DEFAULT_CAMERA
        means = scene.arrays()["means"]
        for pose in traj.poses:
            w2c = pose.inverse()
            pts_cam = means @ w2c.rotation_matrix().T + w2c.translation
            in_front = pts_cam[:, 2] > cam.near
            px = cam.project(pts_cam[in_front])
            visible = int(np.count_nonzero(cam.contains(px)))
            assert visible >= 50

    def test_gaussian_count(self):
        scene, _ = generate_synthetic_scene(0, SyntheticSceneConfig(n_gaussians=123))
        assert len(scene) == 123

    def test_too_few_visible_gaussians_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"synthetic pose 0 sees only 39 Gaussians \(< 50\)"):
            generate_synthetic_scene(5, SyntheticSceneConfig(n_gaussians=50))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_gaussians", 0, "n_gaussians must be >= 1"),
            ("extent", 0.0, "extent, trajectory_length, anchor_spacing must be positive"),
            ("trajectory_length", -1.0, "extent, trajectory_length, anchor_spacing must be positive"),
            ("anchor_spacing", 0.0, "extent, trajectory_length, anchor_spacing must be positive"),
        ],
    )
    def test_config_rejects_bad_values(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SyntheticSceneConfig(**{field: value})
