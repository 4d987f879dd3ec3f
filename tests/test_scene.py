"""Gaussian primitives, scene file format, and the synthetic scene generator."""

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
        quats=np.array([random_unit_quaternion(rng) for _ in range(n)]),
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


def reference_load(path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Sky and arrays of a scene file, read one record at a time.

    The record-by-record loader that built one validated Gaussian per line,
    kept as the reference for the vectorized ``load_splat_scene``: same
    errors, and quaternions normalized one at a time by ``quat_normalize``.
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise SplatFormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "gsplat" or header[1] != "v1":
        raise SplatFormatError(f"{path}: bad header {lines[0]!r}")
    try:
        count = int(header[2])
    except ValueError:
        raise SplatFormatError(f"{path}: bad header count {header[2]!r}") from None
    if count < 0:
        raise SplatFormatError(f"{path}: negative count in header")
    body = lines[1:]
    sky = np.zeros(3)
    if body and body[0].split()[0] == "sky":
        sky_fields = body[0].split()[1:]
        if len(sky_fields) != 3:
            raise SplatFormatError(f"{path}: sky line must have 3 components")
        try:
            sky = np.array([float(f) for f in sky_fields])
        except ValueError as exc:
            raise SplatFormatError(f"{path}: sky line: {exc}") from None
        if not np.all(np.isfinite(sky)) or np.any(sky < 0.0) or np.any(sky > 1.0):
            raise SplatFormatError(f"{path}: sky color must lie in [0, 1]")
        body = body[1:]
    if len(body) != count:
        raise SplatFormatError(f"{path}: header promises {count} records, found {len(body)}")

    columns = {"means": [], "quats": [], "scales": [], "opacities": [], "colors": []}
    for index, line in enumerate(body):
        fields = line.split()
        if len(fields) != 14:
            raise SplatFormatError(f"{path}: record {index}: expected 14 fields, got {len(fields)}")
        try:
            values = np.array([float(f) for f in fields])
        except ValueError as exc:
            raise SplatFormatError(f"{path}: record {index}: {exc}") from None
        if not np.all(np.isfinite(values)):
            raise SplatFormatError(f"{path}: record {index}: non-finite value")
        if np.any(values[7:10] <= 0.0):
            raise SplatFormatError(f"{path}: record {index}: scale must be positive")
        if not 0.0 < values[10] <= 1.0:
            raise SplatFormatError(f"{path}: record {index}: opacity must lie in (0, 1]")
        if np.any(values[11:14] < 0.0) or np.any(values[11:14] > 1.0):
            raise SplatFormatError(f"{path}: record {index}: color must lie in [0, 1]")
        columns["means"].append(values[0:3])
        columns["quats"].append(quat_normalize(values[3:7]))
        columns["scales"].append(values[7:10])
        columns["opacities"].append(float(values[10]))
        columns["colors"].append(values[11:14])
    widths = {"means": 3, "quats": 4, "scales": 3, "opacities": None, "colors": 3}
    arrays = {
        name: np.array(rows).reshape((count,) if widths[name] is None else (count, widths[name]))
        for name, rows in columns.items()
    }
    return sky, arrays


def assert_same_bytes(scene: SplatScene, reference) -> None:
    sky, arrays = reference
    assert scene.sky_color.tobytes() == sky.tobytes()
    got = scene.arrays()
    assert list(got) == list(arrays)
    for name, values in arrays.items():
        assert got[name].dtype == values.dtype and got[name].shape == values.shape, name
        assert got[name].tobytes() == values.tobytes(), name


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
        # last ulp; everything else survives the text format exactly
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

    def test_header_line(self, tmp_path):
        scene = self.make_scene(n=3)
        path = tmp_path / "scene.gsplat"
        save_splat_scene(path, scene)
        first = path.read_text().splitlines()[0]
        assert first == "gsplat v1 3"

    def test_missing_sky_line_defaults_to_black(self, tmp_path):
        path = tmp_path / "scene.gsplat"
        record = "0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5"
        path.write_text(f"gsplat v1 1\n{record}\n")
        scene = load_splat_scene(path)
        np.testing.assert_array_equal(scene.sky_color, np.zeros(3))

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "scene.gsplat"
        path.write_text("gsplat v2 0\n")
        with pytest.raises(SplatFormatError, match="header"):
            load_splat_scene(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "scene.gsplat"
        path.write_text("")
        with pytest.raises(SplatFormatError, match="empty"):
            load_splat_scene(path)

    def test_count_mismatch_raises(self, tmp_path):
        path = tmp_path / "scene.gsplat"
        path.write_text("gsplat v1 2\nsky 0 0 0\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5\n")
        with pytest.raises(SplatFormatError, match="2"):
            load_splat_scene(path)

    def test_wrong_field_count_names_record(self, tmp_path):
        path = tmp_path / "scene.gsplat"
        path.write_text("gsplat v1 1\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5\n")
        with pytest.raises(SplatFormatError, match="record 0"):
            load_splat_scene(path)

    def test_second_bad_record_names_index_1(self, tmp_path):
        good = "0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5"
        bad = "0 0 5 1 0 0 0 0.1 0.1 0.1 2.0 0.5 0.5 0.5"  # opacity 2.0
        path = tmp_path / "scene.gsplat"
        path.write_text(f"gsplat v1 2\n{good}\n{bad}\n")
        with pytest.raises(SplatFormatError, match="record 1"):
            load_splat_scene(path)

    def test_non_finite_value_raises(self, tmp_path):
        path = tmp_path / "scene.gsplat"
        path.write_text("gsplat v1 1\nnan 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5\n")
        with pytest.raises(SplatFormatError):
            load_splat_scene(path)

    def test_bad_sky_color_raises(self, tmp_path):
        path = tmp_path / "scene.gsplat"
        path.write_text("gsplat v1 0\nsky 0 0 1.5\n")
        with pytest.raises(SplatFormatError, match="sky"):
            load_splat_scene(path)


    # -- the vectorized loader against the record-by-record reference -------

    def test_records_reach_loadtxt_as_the_open_file(self, tmp_path, monkeypatch):
        """One loadtxt call reads the records from the file, not from a list of lines."""
        scene, _ = generate_synthetic_scene(4, SyntheticSceneConfig(n_gaussians=300))
        path = tmp_path / "scene.gsplat"
        save_splat_scene(path, scene)
        inputs = []
        loadtxt = np.loadtxt

        def spy(source, *args, **kwargs):
            inputs.append(source)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        assert_same_bytes(load_splat_scene(path), reference_load(path))
        assert len(inputs) == 1 and hasattr(inputs[0], "read")

    def test_generated_scene_loads_like_reference(self, tmp_path):
        scene, _ = generate_synthetic_scene(4, SyntheticSceneConfig(n_gaussians=300))
        path = tmp_path / "scene.gsplat"
        save_splat_scene(path, scene)
        assert_same_bytes(load_splat_scene(path), reference_load(path))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_hand_written_file_loads_like_reference(self, tmp_path, newline):
        lines = [
            "",
            "  gsplat   v1\t3 ",
            "\t",
            "sky 0.25  0.5 0.75",
            "0 0 5   2 0 0 0   0.1 0.1 0.1   0.8   0.5 0.5 0.5",
            "",
            "\t1.5 -2e-1 4.25 -0.3 0.4 -0.5 0.6 0.2 0.3 0.4 1 0 1 0.25   ",
            "-1 1 7 -1e-3 2.5e2 -3 0.125 1e-2 .5 5. 0.5 1.0 0.0 1",
            "",
            "",
        ]
        path = tmp_path / "scene.gsplat"
        path.write_bytes(newline.join(lines).encode())
        scene = load_splat_scene(path)
        assert_same_bytes(scene, reference_load(path))
        assert np.all(scene.quats[:, 0] >= 0.0)
        np.testing.assert_allclose(np.linalg.norm(scene.quats, axis=1), 1.0, atol=1e-15)

    def test_file_outside_the_plain_layout_loads_like_reference(self, tmp_path):
        """Non-ASCII separators and Python-only number spellings take the
        line-by-line path and still load."""
        path = tmp_path / "scene.gsplat"
        path.write_text(
            "gsplat v1 2\n"
            "0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5\n"
            "1_0\u00a00 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5\n",
            encoding="utf-8",
        )
        scene = load_splat_scene(path)
        assert_same_bytes(scene, reference_load(path))
        assert scene.means[1, 0] == 10.0

    def test_save_load_save_is_byte_identical(self, tmp_path):
        """Every value but the quaternion survives save -> load -> save byte for
        byte.  The loader re-normalizes each quaternion, which can move its
        last bit, so those fields must match the reference loader's values."""
        scene, _ = generate_synthetic_scene(5, SyntheticSceneConfig(n_gaussians=200))
        first, second = tmp_path / "a.gsplat", tmp_path / "b.gsplat"
        save_splat_scene(first, scene)
        save_splat_scene(second, load_splat_scene(first))
        first_lines = first.read_text().splitlines()
        second_lines = second.read_text().splitlines()
        assert second_lines[:2] == first_lines[:2]
        reference_quats = reference_load(first)[1]["quats"]
        for a, b, quat in zip(first_lines[2:], second_lines[2:], reference_quats, strict=True):
            a, b = a.split(), b.split()
            assert b[:3] + b[7:] == a[:3] + a[7:]
            assert b[3:7] == [repr(float(v)) for v in quat]

    def test_non_numeric_token_names_record_1(self, tmp_path):
        good = "0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5"
        bad = "0 0 5 1 0 0 0 0.1 abc 0.1 0.8 0.5 0.5 0.5"
        path = tmp_path / "scene.gsplat"
        path.write_text(f"gsplat v1 3\n{good}\n{bad}\n{good}\n")
        with pytest.raises(SplatFormatError, match="record 1") as got:
            load_splat_scene(path)
        assert str(got.value) == f"{path}: record 1: could not convert string to float: 'abc'"

    GOOD = "0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n \n",
            "gsplat v2 0\n",
            "gsplat v1\n",
            "gsplat v1 x\n",
            "gsplat v1 -1\n",
            "gsplat v1 1 2\n" + GOOD + "\n",
            "gsplat v1 0\nsky 0 0\n",
            "gsplat v1 0\nsky 0 0 zero\n",
            "gsplat v1 0\nsky 0 0 nan\n",
            "gsplat v1 1\nsky 0 0 1.5\n0 0 5\n",
            "gsplat v1 2\n" + GOOD + "\n",
            "gsplat v1 0\n" + GOOD + "\n",
            "gsplat v1 1\n" + GOOD + " 0.5\n",
            "gsplat v1 1\nsky\n",
            "gsplat v1 2\n" + GOOD + "\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5\n",
            "gsplat v1 2\n" + GOOD + "\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 1e\n",
            "gsplat v1 2\n" + GOOD + "\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 1-2\n",
            "gsplat v1 2\n" + GOOD + "\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0x1\n",
            "gsplat v1 1\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 inf\n",
            "gsplat v1 1\n0 0 5 1 0 0 0 0.1 0.1 nan 0.8 0.5 0.5 0.5\n",
            "gsplat v1 1\n0 0 5 1 0 0 0 0.1 0.0 0.1 0.8 0.5 0.5 0.5\n",
            "gsplat v1 1\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.0 0.5 0.5 0.5\n",
            "gsplat v1 1\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 -0.5 0.5\n",
            # a broken rule in record 0 is reported before a bad token in record 1
            "gsplat v1 2\n0 0 5 1 0 0 0 0.1 0.1 0.1 1.5 0.5 0.5 0.5\n"
            "0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 abc\n",
            # a bad token in record 0 is reported before a broken rule in record 1
            "gsplat v1 2\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 abc\n"
            "0 0 5 1 0 0 0 0.1 0.1 0.1 1.5 0.5 0.5 0.5\n",
            # field counts that only add up to 14 per record overall
            "gsplat v1 2\n0 0 5 1 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5\n" + GOOD + " 0.5\n",
            "gsplat v1 2\n" + GOOD + " " + GOOD + "\n",
            # a short record 1 is reported before a broken rule in record 2
            "gsplat v1 3\n" + GOOD + "\n0 0 5\n0 0 5 1 0 0 0 0.1 0.1 0.1 1.5 0.5 0.5 0.5\n",
            # "#" starts no comment: a trailing note is a 15th field
            "gsplat v1 2\n" + GOOD + "\n" + GOOD + " #note\n",
        ],
    )
    def test_errors_match_reference(self, tmp_path, text):
        path = tmp_path / "scene.gsplat"
        path.write_text(text)
        with pytest.raises(SplatFormatError) as expected:
            reference_load(path)
        with pytest.raises(SplatFormatError) as got:
            load_splat_scene(path)
        assert str(got.value) == str(expected.value)

    def test_zero_quaternion_is_a_format_error(self, tmp_path):
        path = tmp_path / "scene.gsplat"
        path.write_text(f"gsplat v1 2\n{self.GOOD}\n0 0 5 0 0 0 0 0.1 0.1 0.1 0.8 0.5 0.5 0.5\n")
        with pytest.raises(SplatFormatError, match="record 1: quaternion has near-zero norm"):
            load_splat_scene(path)


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
