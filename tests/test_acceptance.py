"""Acceptance checks: ten end-to-end criteria, one verdict line each.

Each test prints a single ``[criterion NN] PASS/FAIL`` line with the measured
numbers, then asserts.  The shared 50-trial relocalization experiment feeds
criteria 5, 6, and 7.
"""

import json
import time

import numpy as np
import pytest

from splatreloc import (
    CameraIntrinsics,
    Correspondences,
    DEFAULT_CAMERA,
    OracleConfig,
    OracleMatcher,
    Pose,
    SplatScene,
    SyntheticSceneConfig,
    ate_statistics,
    build_anchor_db,
    epnp,
    generate_synthetic_scene,
    load_splat_scene,
    load_trajectory,
    pose_delta,
    recall_at,
    relocalize,
    render,
    save_ppm,
    solve_pnp,
    umeyama_align,
)
from splatreloc.cli import main as cli_main
from splatreloc.geometry import quat_from_axis_angle, quat_multiply
from splatreloc.pnp import apply_delta, reprojection_residuals

from conftest import scene_from

CAM = CameraIntrinsics(fx=250.0, fy=250.0, cx=160.0, cy=120.0, width=320, height=240)


def verdict(capsys, number: int, name: str, passed: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[criterion {number:02d}] {status} {name}: {detail}")


def random_pose(rng) -> Pose:
    q = rng.normal(size=4)
    return Pose(q / np.linalg.norm(q), rng.uniform(-5.0, 5.0, 3))


def consistent_case(seed, n=20, noise=0.0, outliers=0, cam=CAM, z_range=(3.0, 8.0)):
    """A pose plus n pixel/world correspondences consistent with it."""
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    depths = rng.uniform(*z_range, n)
    pixels = np.column_stack(
        [rng.uniform(10, cam.width - 10, n), rng.uniform(10, cam.height - 10, n)]
    )
    points = pose.apply(cam.backproject(pixels, depths))
    observed = pixels + (rng.normal(0.0, noise, (n, 2)) if noise > 0 else 0.0)
    if outliers:
        bad = rng.choice(n, outliers, replace=False)
        observed[bad, 0] = rng.uniform(0, cam.width, outliers)
        observed[bad, 1] = rng.uniform(0, cam.height, outliers)
    return pose, Correspondences(observed, points)


# ---------------------------------------------------------------------------
# Shared end-to-end experiment (criteria 5-7)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def accept_world():
    return generate_synthetic_scene(3, SyntheticSceneConfig(n_gaussians=4000))


@pytest.fixture(scope="module")
def accept_db(accept_world):
    scene, trajectory = accept_world
    return build_anchor_db(scene, trajectory, DEFAULT_CAMERA, spacing=3.0)


def offset_query(db, seed):
    """Ground-truth pose 0.5 m / 5 degrees away from a cyclically chosen anchor."""
    rec = db.records[seed % len(db.records)]
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    axis = rng.standard_normal(3)
    rotation = quat_multiply(
        quat_from_axis_angle(axis, np.deg2rad(5.0)), rec.pose.rotation
    )
    return Pose(rotation, rec.pose.translation + 0.5 * direction)


@pytest.fixture(scope="module")
def trials(accept_world, accept_db):
    """50 seeded relocalizations: oracle matcher, 0.5 px noise, 0.5 m / 5 deg offsets."""
    scene, _ = accept_world
    records = []
    t_start = time.perf_counter()
    for seed in range(50):
        gt = offset_query(accept_db, seed)
        query = render(scene, gt, DEFAULT_CAMERA).rgb
        matcher = OracleMatcher(gt, DEFAULT_CAMERA, OracleConfig(pixel_noise_sigma=0.5, seed=seed))
        t0 = time.perf_counter()
        result = relocalize(query, scene, accept_db, matcher)
        elapsed = time.perf_counter() - t0
        trans_err, rot_err = pose_delta(result.final_pose, gt)
        records.append(
            {
                "seed": seed,
                "status": result.status,
                "trans_err": trans_err,
                "rot_err_deg": np.rad2deg(rot_err),
                "iterations": len(result.traces),
                "counts": [tr.match_count for tr in result.traces],
                "elapsed": elapsed,
            }
        )
    return {"records": records, "total_seconds": time.perf_counter() - t_start}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_epnp_exact_on_noise_free_instances(capsys):
    t0 = time.perf_counter()
    max_trans = max_rot = 0.0
    for seed in range(100):
        pose, corrs = consistent_case(seed, n=20)
        report = epnp(corrs, CAM)
        trans, rot = pose_delta(report.pose, pose)
        max_trans = max(max_trans, trans)
        max_rot = max(max_rot, rot)
    elapsed = time.perf_counter() - t0
    passed = max_trans < 1e-6 and max_rot < 1e-6 and elapsed < 5.0
    verdict(
        capsys, 1, "EPnP exact on 100 noise-free instances", passed,
        f"max err {max_trans:.2e} m / {max_rot:.2e} rad, {elapsed:.2f} s (limits 1e-6, 5 s)",
    )
    assert passed


def test_criterion_02_ba_jacobian_matches_finite_differences(capsys):
    h = 1e-6
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pose, corrs = consistent_case(seed, n=8)
        probe = apply_delta(pose, rng.normal(0, 0.01, 6))
        _, J = reprojection_residuals(corrs, CAM, probe)
        fd = np.empty_like(J)
        for k in range(6):
            delta = np.zeros(6)
            delta[k] = h
            r_plus, _ = reprojection_residuals(corrs, CAM, apply_delta(probe, delta))
            r_minus, _ = reprojection_residuals(corrs, CAM, apply_delta(probe, -delta))
            fd[:, k] = (r_plus - r_minus) / (2 * h)
        scale = max(1.0, float(np.abs(fd).max()))
        worst = max(worst, float(np.abs(J - fd).max() / scale))
    passed = worst < 1e-5
    verdict(
        capsys, 2, "bundle-adjustment jacobian vs central differences", passed,
        f"max relative error {worst:.2e} over 20 poses (limit 1e-5)",
    )
    assert passed


def test_criterion_03_umeyama_exact_recovery(capsys):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(12, 3)) * 2.0
        transform = random_pose(rng)
        dst = transform.apply(src)
        estimate = umeyama_align(src, dst)
        worst = max(worst, float(np.max(np.linalg.norm(estimate.apply(src) - dst, axis=1))))
    passed = worst < 1e-9
    verdict(
        capsys, 3, "umeyama exact recovery of 100 rigid transforms", passed,
        f"max residual {worst:.2e} m (limit 1e-9)",
    )
    assert passed


def test_criterion_04_renderer_identities(capsys):
    rng = np.random.default_rng(0)
    sky = np.array([0.15, 0.3, 0.45])
    pose = Pose.identity()

    empty = render(SplatScene(sky_color=sky), pose, CAM)
    sky_exact = bool(np.array_equal(empty.rgb, np.broadcast_to(sky, empty.rgb.shape)))

    single = scene_from([([0.0, 0.0, 5.0], [1, 0, 0, 0], [0.08] * 3, 0.9, [1.0, 0.0, 0.0])], sky)
    out = render(single, pose, CAM)
    peak = tuple(int(v) for v in np.unravel_index(np.argmax(out.opacity), out.opacity.shape))
    peak_ok = peak == (120, 160)
    depth_err = abs(float(out.depth[120, 160]) - 5.0)

    color = np.array([0.8, 0.4, 0.1])
    gaussians = [
        (
            rng.uniform(-2, 2, 3) + [0, 0, 6], rng.normal(size=4),
            rng.uniform(0.05, 0.3, 3), float(rng.uniform(0.5, 1.0)), color,
        )
        for _ in range(200)
    ]
    uniform = render(scene_from(gaussians, sky), pose, CAM)
    expected = uniform.opacity[..., None] * color + (1.0 - uniform.opacity[..., None]) * sky
    convexity_err = float(np.max(np.abs(uniform.rgb - expected)))

    passed = sky_exact and peak_ok and depth_err < 1e-2 and convexity_err < 1e-6
    verdict(
        capsys, 4, "renderer identities", passed,
        f"empty-scene sky exact={sky_exact}, peak at {peak} (want (120, 160)), "
        f"depth err {depth_err:.1e} (limit 1e-2), convexity err {convexity_err:.1e} (limit 1e-6)",
    )
    assert passed


def test_criterion_05_end_to_end_relocalization(capsys, trials):
    records = trials["records"]
    converged = [r for r in records if r["status"] == "converged"]
    rate = len(converged) / len(records)
    med_trans = float(np.median([r["trans_err"] for r in converged]))
    med_rot = float(np.median([r["rot_err_deg"] for r in converged]))
    med_iters = float(np.median([r["iterations"] for r in converged]))
    total = trials["total_seconds"]
    passed = (
        rate >= 0.95 and med_trans < 0.02 and med_rot < 0.1
        and med_iters <= 5 and total < 300.0
    )
    verdict(
        capsys, 5, "end-to-end synthetic relocalization (50 seeds)", passed,
        f"{len(converged)}/50 converged, median err {med_trans * 1e3:.2f} mm / "
        f"{med_rot:.4f} deg, median iters {med_iters:.0f}, {total:.0f} s "
        f"(limits 95%, 0.02 m, 0.1 deg, 5 iters, 300 s)",
    )
    assert passed


def test_criterion_06_match_count_non_decreasing(capsys, trials):
    records = trials["records"]
    monotone = [
        all(b >= a for a, b in zip(r["counts"], r["counts"][1:])) for r in records
    ]
    fraction = sum(monotone) / len(monotone)
    passed = fraction >= 0.90
    verdict(
        capsys, 6, "match count non-decreasing across iterations", passed,
        f"{sum(monotone)}/{len(monotone)} trials monotone ({fraction:.0%}, limit 90%)",
    )
    assert passed


def test_criterion_07_single_relocalization_under_two_seconds(capsys, trials, accept_world, accept_db):
    """Times one representative (median-iteration-count) trial end to end."""
    scene, _ = accept_world
    records = trials["records"]
    converged = [r for r in records if r["status"] == "converged"]
    med_iters = float(np.median([r["iterations"] for r in converged]))
    seed = next(r["seed"] for r in converged if r["iterations"] == med_iters)
    gt = offset_query(accept_db, seed)
    query = render(scene, gt, DEFAULT_CAMERA).rgb
    matcher = OracleMatcher(gt, DEFAULT_CAMERA, OracleConfig(pixel_noise_sigma=0.5, seed=seed))
    t0 = time.perf_counter()
    result = relocalize(query, scene, accept_db, matcher)
    elapsed = time.perf_counter() - t0
    passed = elapsed <= 2.0 and result.status == "converged"
    verdict(
        capsys, 7, "single relocalization wall-clock", passed,
        f"seed {seed} ({result.status}, {len(result.traces)} iterations) "
        f"took {elapsed:.2f} s (limit 2 s)",
    )
    assert passed


def test_criterion_08_evaluation_oracles(capsys):
    stats = ate_statistics(np.array([0.1, 0.2, 0.3]))
    rmse_err = abs(stats.rmse - 0.21602)
    std_err = abs(stats.std - 0.08165)
    hand_ok = rmse_err <= 1e-5 and std_err <= 1e-5

    rng = np.random.default_rng(8)
    identity_worst = 0.0
    for _ in range(1000):
        errors = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 60)))
        s = ate_statistics(errors)
        identity_worst = max(identity_worst, abs(s.rmse**2 - (s.mean**2 + s.std**2)))
    identity_ok = identity_worst <= 1e-9

    trans = rng.uniform(0.0, 0.3, 1000)
    rot = rng.uniform(0.0, 3.0, 1000)
    recall_ok = True
    for tt, rt in [(0.05, 0.5), (0.1, 1.0), (0.2, 2.0), (0.5, 5.0)]:
        brute = sum(1 for a, b in zip(trans, rot) if a < tt and b < rt) / trans.size
        recall_ok = recall_ok and recall_at(trans, rot, tt, rt) == brute

    passed = hand_ok and identity_ok and recall_ok
    verdict(
        capsys, 8, "evaluation oracles", passed,
        f"ate vs hand values off by {rmse_err:.1e}/{std_err:.1e} (limit 1e-5), "
        f"rmse identity worst {identity_worst:.1e} (limit 1e-9), "
        f"recall matches brute force: {recall_ok}",
    )
    assert passed


def test_criterion_09_ransac_forty_percent_outliers(capsys):
    successes = 0
    worst = 0.0
    for seed in range(50):
        pose, corrs = consistent_case(seed, n=200, noise=0.25, outliers=80)
        report = solve_pnp(corrs, CAM, seed=seed)
        trans, _ = pose_delta(report.pose, pose)
        worst = max(worst, trans)
        successes += trans < 0.005
    rate = successes / 50
    passed = rate >= 0.98
    verdict(
        capsys, 9, "ransac under 40% outliers", passed,
        f"{successes}/50 within 5 mm (worst {worst * 1e3:.2f} mm, limit 98%)",
    )
    assert passed


def test_criterion_10_rerun_is_byte_identical(capsys, tmp_path):
    scene_path = tmp_path / "scene.gsplat"
    traj_path = tmp_path / "gt.txt"
    assert cli_main(
        ["synth", "--out", str(scene_path), "--traj-out", str(traj_path),
         "--seed", "5", "--n-gaussians", "300"]
    ) == 0
    anchors = tmp_path / "anchors"
    assert cli_main(
        ["build-anchors", "--scene", str(scene_path), "--trajectory", str(traj_path),
         "--out", str(anchors)]
    ) == 0
    queries = tmp_path / "queries"
    queries.mkdir()
    scene = load_splat_scene(scene_path)
    gt_pose = load_trajectory(traj_path).pose_for(0)
    save_ppm(queries / "0.ppm", render(scene, gt_pose, DEFAULT_CAMERA).rgb)

    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(
            ["relocalize", "--scene", str(scene_path), "--anchors", str(anchors),
             "--queries", str(queries), "--out", str(out),
             "--matcher", "oracle", "--query-gt", str(traj_path), "--seed", "3"]
        ) == 0
        outputs.append((out / "0.json").read_bytes())

    passed = outputs[0] == outputs[1]
    status = json.loads(outputs[0])["status"]
    verdict(
        capsys, 10, "relocalize rerun determinism", passed,
        f"two runs produced {'identical' if passed else 'DIFFERING'} JSON "
        f"({len(outputs[0])} bytes, status {status})",
    )
    assert passed
