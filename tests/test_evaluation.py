"""Tests for trajectory-error statistics, recall, and histograms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splatreloc import (
    AteStats,
    Pose,
    Trajectory,
    ate_statistics,
    error_histogram,
    pose_errors,
    recall_at,
    write_ate_csv,
)
from splatreloc.evaluation import make_pose_trajectories
from splatreloc.geometry import quat_from_axis_angle, quat_multiply


def random_pose(rng) -> Pose:
    q = rng.normal(size=4)
    return Pose(q / np.linalg.norm(q), rng.uniform(-3.0, 3.0, 3))


class TestAteStatistics:
    def test_hand_computed_values(self):
        """Errors {0.1, 0.2, 0.3}: rmse = sqrt(0.14/3), population std = sqrt(1/150)."""
        stats = ate_statistics(np.array([0.1, 0.2, 0.3]))
        assert stats.rmse == pytest.approx(0.21602468994692867, abs=1e-12)
        assert stats.std == pytest.approx(0.08164965809277261, abs=1e-12)
        assert stats.mean == pytest.approx(0.2, abs=1e-12)
        assert stats.median == pytest.approx(0.2, abs=1e-12)
        assert stats.min == pytest.approx(0.1, abs=1e-12)
        assert stats.max == pytest.approx(0.3, abs=1e-12)

    def test_constant_errors(self):
        """A constant sequence has zero spread and rmse = mean = the value."""
        stats = ate_statistics(np.full(7, 0.25))
        assert stats.rmse == pytest.approx(0.25, abs=1e-12)
        assert stats.std == pytest.approx(0.0, abs=1e-12)
        assert stats.mean == stats.median == 0.25

    def test_rmse_decomposition_identity(self, rng):
        """rmse^2 = mean^2 + std^2 holds because std is the population form."""
        for _ in range(200):
            errors = rng.uniform(0.0, 1.0, size=rng.integers(1, 60))
            stats = ate_statistics(errors)
            assert stats.rmse**2 == pytest.approx(stats.mean**2 + stats.std**2, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            ate_statistics(np.array([]))

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            ate_statistics(np.array([0.1, -0.2]))

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="finite"):
            ate_statistics(np.array([0.1, np.nan]))


class TestPoseErrors:
    def test_uniform_translation_shift(self, rng):
        """Shifting every estimate 0.1 m in x gives 0.1 m error, zero rotation."""
        gt = Trajectory()
        est = Trajectory()
        for i in range(5):
            pose = random_pose(rng)
            gt.append(i, pose)
            est.append(i, Pose(pose.rotation, pose.translation + np.array([0.1, 0.0, 0.0])))
        indices, trans, rot = pose_errors(est, gt)
        assert list(indices) == [0, 1, 2, 3, 4]
        assert_allclose(trans, 0.1, atol=1e-12)
        assert_allclose(rot, 0.0, atol=1e-9)

    def test_pure_rotation_error_in_degrees(self, rng):
        """A 2-degree rotation offset reports 2.0 on the rotation axis only."""
        gt = Trajectory()
        est = Trajectory()
        spin = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.deg2rad(2.0))
        for i in range(4):
            pose = random_pose(rng)
            gt.append(i, pose)
            est.append(i, Pose(quat_multiply(spin, pose.rotation), pose.translation))
        _, trans, rot = pose_errors(est, gt)
        assert_allclose(trans, 0.0, atol=1e-12)
        assert_allclose(rot, 2.0, atol=1e-9)

    def test_alignment_removes_global_transform(self, rng):
        """align=True undoes one rigid transform applied to the whole trajectory."""
        gt = Trajectory()
        for i in range(6):
            gt.append(i, random_pose(rng))
        offset = random_pose(rng)
        est = Trajectory()
        for i, pose in gt:
            est.append(i, offset.compose(pose))
        _, trans_raw, _ = pose_errors(est, gt, align=False)
        assert np.min(trans_raw) > 0.1
        _, trans, rot = pose_errors(est, gt, align=True)
        assert_allclose(trans, 0.0, atol=1e-9)
        assert_allclose(rot, 0.0, atol=1e-9)

    def test_alignment_on_a_straight_path(self, rng):
        """Collinear positions still fix the alignment: the orientations pin its roll."""
        gt = Trajectory()
        for i in range(5):
            spin = quat_from_axis_angle(rng.standard_normal(3), 0.3)
            gt.append(i, Pose(spin, np.array([0.5 * i, 0.0, 0.0])))
        offset = random_pose(rng)
        est = Trajectory()
        for i, pose in gt:
            est.append(i, offset.compose(pose))
        _, trans, rot = pose_errors(est, gt, align=True)
        assert_allclose(trans, 0.0, atol=1e-9)
        assert_allclose(rot, 0.0, atol=1e-9)

    @pytest.mark.parametrize("frames", [1, 2])
    def test_alignment_needs_three_frames(self, rng, frames):
        """Fewer than 3 frames cannot fix a rigid transform: an error, not a silent skip."""
        gt = Trajectory()
        for i in range(frames):
            gt.append(i, random_pose(rng))
        with pytest.raises(ValueError, match=f"at least 3 frames, got {frames}"):
            pose_errors(gt, gt, align=True)

    def test_mismatched_indices_raise(self, rng):
        a = Trajectory()
        b = Trajectory()
        a.append(0, random_pose(rng))
        b.append(1, random_pose(rng))
        with pytest.raises(ValueError, match="different frames"):
            pose_errors(a, b)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            pose_errors(Trajectory(), Trajectory())


class TestRecallAt:
    def test_hand_case(self):
        """Only frames below BOTH thresholds count."""
        trans = np.array([0.05, 0.15, 0.05, 0.2])
        rot = np.array([0.5, 0.5, 2.0, 0.5])
        assert recall_at(trans, rot, 0.1, 1.0) == pytest.approx(0.25)

    def test_threshold_is_strict(self):
        """An error exactly at the threshold does not count as a hit."""
        assert recall_at(np.array([0.1]), np.array([0.5]), 0.1, 1.0) == 0.0
        assert recall_at(np.array([0.05]), np.array([1.0]), 0.1, 1.0) == 0.0
        assert recall_at(np.array([0.0999]), np.array([0.999]), 0.1, 1.0) == 1.0

    def test_matches_brute_force(self, rng):
        """recall_at equals an explicit loop over 1000 random error pairs."""
        trans = rng.uniform(0.0, 0.3, 1000)
        rot = rng.uniform(0.0, 3.0, 1000)
        for tt, rt in [(0.1, 1.0), (0.05, 0.5), (0.2, 2.0)]:
            expected = sum(1 for a, b in zip(trans, rot) if a < tt and b < rt) / 1000
            assert recall_at(trans, rot, tt, rt) == pytest.approx(expected, abs=0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            recall_at(np.array([0.1]), np.array([0.1, 0.2]), 0.1, 1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="zero frames"):
            recall_at(np.array([]), np.array([]), 0.1, 1.0)


class TestErrorHistogram:
    def test_boundary_goes_to_upper_bin(self):
        """Bins are left-closed: a value on an interior edge joins the bin above."""
        counts, overflow = error_histogram([0.05, 0.1, 0.15], [0.0, 0.1, 0.2])
        assert list(counts) == [1, 2]
        assert overflow == 0

    def test_out_of_range_values_overflow(self):
        """Below the first edge or at/above the last edge lands in overflow."""
        counts, overflow = error_histogram([-0.5, 0.2, 5.0], [0.0, 0.1, 0.2])
        assert list(counts) == [0, 0]
        assert overflow == 3

    def test_counts_are_exhaustive(self, rng):
        """Bins plus overflow always account for every value."""
        edges = np.linspace(0.0, 0.5, 21)
        values = rng.uniform(-0.1, 0.7, 500)
        counts, overflow = error_histogram(values, edges)
        assert counts.sum() + overflow == 500
        inside = (values >= 0.0) & (values < 0.5)
        assert counts.sum() == np.count_nonzero(inside)

    def test_empty_values(self):
        counts, overflow = error_histogram([], [0.0, 1.0])
        assert list(counts) == [0]
        assert overflow == 0

    def test_decreasing_edges_raise(self):
        with pytest.raises(ValueError, match="increasing"):
            error_histogram([0.1], [0.2, 0.1])

    def test_single_edge_raises(self):
        with pytest.raises(ValueError, match=">= 2"):
            error_histogram([0.1], [0.2])


class TestAteCsv:
    def test_exact_text(self, tmp_path):
        """The CSV layout is fixed: header plus one repr-formatted row per sequence."""
        path = tmp_path / "ate.csv"
        write_ate_csv(path, [("seq01", AteStats(0.5, 0.25, 0.4, 0.3, 0.2, 0.9))])
        assert path.read_text() == (
            "seq,rmse,std,mean,median,min,max\nseq01,0.5,0.25,0.4,0.3,0.2,0.9\n"
        )

    def test_roundtrip_precision(self, tmp_path):
        """repr formatting preserves doubles exactly through a parse cycle."""
        stats = ate_statistics(np.array([0.1, 0.2, 0.3]))
        path = tmp_path / "ate.csv"
        write_ate_csv(path, [("s", stats)])
        fields = path.read_text().splitlines()[1].split(",")
        assert float(fields[1]) == stats.rmse
        assert float(fields[2]) == stats.std


class TestMakePoseTrajectories:
    def test_sorts_by_index(self, rng):
        """Entries arriving out of order come back as index-sorted trajectories."""
        entries = [(i, random_pose(rng), random_pose(rng)) for i in [4, 1, 3]]
        est, gt = make_pose_trajectories(entries)
        assert list(est.indices) == [1, 3, 4]
        assert list(gt.indices) == [1, 3, 4]
        by_index = {i: (e, g) for i, e, g in entries}
        for idx, pose in est:
            assert np.array_equal(pose.as_array(), by_index[idx][0].as_array())
        for idx, pose in gt:
            assert np.array_equal(pose.as_array(), by_index[idx][1].as_array())
