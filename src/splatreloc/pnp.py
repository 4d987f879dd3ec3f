"""Pose estimation from 2D-3D correspondences.

Provides:
  * ``Correspondences``: observed pixels and their world points as two
    row-aligned arrays,
  * ``umeyama_align``: closed-form rigid alignment of two point sets (SVD
    with a determinant sign correction, scale fixed to 1),
  * ``epnp``: control-point PnP — world points are rewritten in barycentric
    coordinates of four control points (centroid + principal axes), the
    camera-frame control points are recovered from the null space of a
    2n x 12 projection system, and the pose follows by rigid alignment,
  * ``refine_ba``: Levenberg-Marquardt minimization of Huber-robustified
    reprojection error with an analytic Jacobian,
  * ``solve_pnp``: seeded RANSAC over minimal EPnP hypotheses, then
    ``refine_ba`` on the winning hypothesis's inliers, starting from that
    hypothesis.

The solver settings are the module constants below: ``RANSAC_ITERATIONS``,
``INLIER_THRESHOLD_PX`` and ``MIN_INLIERS`` for the robust solve, and
``LM_MAX_ITERS``, ``HUBER_DELTA_PX``, ``LM_INIT_DAMPING``, ``LM_STEP_TOL`` and
``LM_COST_TOL`` for the refinement.  ``solve_pnp(corrs, cam, seed=0)`` takes
only the seed of its sampling generator.

EPnP and rigid alignment are written once, batched: every step works on a
stack of K independent problems, and ``epnp``/``umeyama_align`` are its
public K = 1 calls.  ``solve_pnp`` draws all of its minimal samples first,
solves them in one batched EPnP call and scores every hypothesis against
every correspondence in (K, N) blocks; it does not call ``epnp``.  A sample
that is coplanar or has no candidate in front of the camera is marked,
never raised, so one bad sample cannot fail the batch.

Determinism contract of ``solve_pnp``: correspondences are lexsorted before
sampling; each hypothesis draws ``rng.choice(n, 6, replace=False)`` from the
seeded generator, in hypothesis order; EPnP keeps only candidates with every
point at z > 0, scoring counts inliers at z > near; the winner has the most
inliers, then the lowest mean inlier error, then the earliest index.

Poses are camera-to-world throughout; reprojection uses the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CheiralityViolation, DegenerateGeometry, InsufficientMatches, NoConsensus
from .features import RowRecord, column
from .geometry import (
    CameraIntrinsics,
    Pose,
    matrix_to_quat,
    quat_from_rotvec,
    quat_multiply,
    quat_to_matrix,
)
from .spans import traced

MIN_CORRESPONDENCES = 6
#: Tetrahedron volume below which control points count as coplanar (m^3).
COPLANAR_VOLUME_EPS = 1e-9
#: Hypothesis-correspondence pairs scored per block, bounding the (K, N)
#: temporaries of ``solve_pnp`` to a few MB whatever N is.
_SCORE_BLOCK = 1 << 16

_PAIR_A, _PAIR_B = np.array(list(combinations(range(4), 2))).T

#: Robust solve: minimal samples drawn per call, the reprojection error (px)
#: below which a correspondence is an inlier, and the inliers a winner needs.
RANSAC_ITERATIONS = 256
INLIER_THRESHOLD_PX = 3.0
MIN_INLIERS = 6
#: Levenberg-Marquardt refinement: iteration cap, Huber loss width (px),
#: initial damping, and the step norm or cost drop that counts as converged.
LM_MAX_ITERS = 50
HUBER_DELTA_PX = 2.0
LM_INIT_DAMPING = 1e-3
LM_STEP_TOL = 1e-10
LM_COST_TOL = 1e-12


@dataclass(frozen=True)
class Correspondences(RowRecord):
    """Observed pixels and their world-space 3D points, one row per pair."""

    pixels: np.ndarray = column(2)
    points: np.ndarray = column(3)


@dataclass
class SolverReport:
    """Outcome of a pose solve."""

    pose: Pose
    inlier_count: int
    mean_reprojection_error: float  # pixels
    iterations: int
    converged: bool


def _control_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centroid + principal-axis control points and barycentric weights.

    ``points`` is (K, n, 3).  Returns the control points (K, 4, 3), the
    weights (K, n, 4) with ``weights @ control`` reproducing each cloud, and a
    (K,) mask of clouds that are (near-)coplanar.  The three non-centroid
    control points sit one standard deviation along each principal axis, so
    they span a tetrahedron whenever the points are not coplanar; a coplanar
    cloud gets placeholder weights instead of a singular solve.
    """
    K, n, _ = points.shape
    centroid = points.mean(axis=1)
    _, svals, vt = np.linalg.svd(points - centroid[:, None], full_matrices=False)
    axis_lengths = svals / np.sqrt(n)
    control = np.concatenate(
        [centroid[:, None], centroid[:, None] + axis_lengths[..., None] * vt], axis=1
    )
    volume = np.abs(np.linalg.det(control[:, 1:] - control[:, :1])) / 6.0
    coplanar = volume < COPLANAR_VOLUME_EPS

    # Barycentric weights: solve [C^T; 1] a_i = [p_i; 1] for every point.
    system = np.ones((K, 4, 4))
    system[:, :3] = control.transpose(0, 2, 1)
    system[coplanar] = np.eye(4)
    rhs = np.ones((K, 4, n))
    rhs[:, :3] = points.transpose(0, 2, 1)
    weights = np.linalg.solve(system, rhs).transpose(0, 2, 1)
    return control, weights, coplanar


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares per problem, as ``np.linalg.lstsq(rcond=None)``.

    ``A`` is (K, m, p) and ``b`` is (K, m); returns (K, p).
    """
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    cutoff = np.finfo(np.float64).eps * max(A.shape[1:]) * s[:, :1]
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    return np.einsum("kij,ki->kj", Vt, s_inv * np.einsum("kmi,km->ki", U, b))


_BETA_GN_ITERS = 10


def _betas(diffs: np.ndarray, world_dists: np.ndarray) -> np.ndarray:
    """Kernel combination weights matching the world control-point distances.

    ``diffs`` is (K, 6, n_basis, 3): per control-point pair, the difference of
    each kernel vector's two control points.  The closed-form seed scales one
    basis vector to the world distances directly; for two or three, the
    distance constraints are linear in the products beta_i beta_j and are
    solved by least squares.  Gauss-Newton then refines the seed for a fixed
    number of steps on the residuals ||sum_k beta_k (v_k[a] - v_k[b])||^2 - d_ab^2.
    """
    n_basis = diffs.shape[2]
    d2 = world_dists**2
    if n_basis == 1:
        dv = diffs[:, :, 0]
        num = np.sum(np.linalg.norm(dv, axis=-1) * world_dists, axis=1)
        den = np.sum(np.sum(dv * dv, axis=-1), axis=1)
        betas = (num / np.maximum(den, 1e-18))[:, None]
    else:
        products = [(i, j) for i in range(n_basis) for j in range(i, n_basis)]
        L = np.stack(
            [
                (1.0 if i == j else 2.0)
                * np.einsum("kpd,kpd->kp", diffs[:, :, i], diffs[:, :, j])
                for i, j in products
            ],
            axis=-1,
        )
        sol = _lstsq(L, d2)
        betas = np.sqrt(np.abs(sol[:, [products.index((i, i)) for i in range(n_basis)]]))
        cross = sol[:, [products.index((0, i)) for i in range(1, n_basis)]]
        betas[:, 1:] *= np.where(cross >= 0, 1.0, -1.0)

    for _ in range(_BETA_GN_ITERS):
        combo = np.einsum("kb,kpbd->kpd", betas, diffs)  # (K, 6, 3)
        residuals = np.einsum("kpd,kpd->kp", combo, combo) - d2
        jac = 2.0 * np.einsum("kpd,kpbd->kpb", combo, diffs)  # (K, 6, n_basis)
        betas = betas + _lstsq(jac, -residuals)
    return betas


def _umeyama(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rigid (R, t) minimizing sum ||b_i - (R a_i + t)||^2 for stacks of point sets.

    ``a`` and ``b`` are (..., n, 3).  Returns R (..., 3, 3), t (..., 3) and a
    mask of (near-)collinear sets, whose rotation is not unique.  The
    determinant sign correction keeps every R a proper rotation.
    """
    mu_a = a.mean(axis=-2)
    mu_b = b.mean(axis=-2)
    H = np.swapaxes(a - mu_a[..., None, :], -1, -2) @ (b - mu_b[..., None, :])
    U, svals, Vt = np.linalg.svd(H)
    collinear = svals[..., 1] <= np.maximum(svals[..., 0], 1.0) * 1e-12
    V = np.swapaxes(Vt, -1, -2)
    Ut = np.swapaxes(U, -1, -2)
    d = np.sign(np.linalg.det(V @ Ut))
    V[..., 2] *= d[..., None]
    R = V @ Ut
    t = mu_b - np.einsum("...ij,...j->...i", R, mu_a)
    return R, t, collinear


def umeyama_align(points_a: np.ndarray, points_b: np.ndarray) -> Pose:
    """Rigid transform (R, t) minimizing sum ||b_i - (R a_i + t)||^2.

    Classic absolute-orientation solution: SVD of the cross-covariance with a
    determinant sign correction so the result is always a proper rotation.
    Scale is fixed at 1.
    """
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"point sets differ in shape: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.shape[1] != 3 or a.shape[0] < 3:
        raise ValueError("need (n, 3) arrays with n >= 3")
    R, t, collinear = _umeyama(a, b)
    if collinear:
        raise DegenerateGeometry("point set is (near-)collinear; rotation is not unique")
    return Pose(matrix_to_quat(R), t)


def _reproj_errors(
    R: np.ndarray, t: np.ndarray, pixels: np.ndarray, points: np.ndarray,
    cam: CameraIntrinsics, near: float,
) -> np.ndarray:
    """Reprojection errors (..., n) of world-to-camera transforms R (..., 3, 3), t (..., 3).

    ``pixels``/``points`` are (n, 2)/(n, 3) or stacked to match R.  A point
    at z <= ``near`` gets an infinite error.
    """
    pts_cam = points @ np.swapaxes(R, -1, -2) + t[..., None, :]
    z = pts_cam[..., 2]
    front = z > near
    with np.errstate(divide="ignore", invalid="ignore"):
        du = cam.fx * pts_cam[..., 0] / z + cam.cx - pixels[..., 0]
        dv = cam.fy * pts_cam[..., 1] / z + cam.cy - pixels[..., 1]
    return np.where(front, np.sqrt(du * du + dv * dv), np.inf)


@dataclass
class _Hypotheses:
    """World-to-camera poses of K EPnP problems, with why any failed."""

    rotation: np.ndarray  # (K, 3, 3)
    translation: np.ndarray  # (K, 3)
    error: np.ndarray  # (K,) mean reprojection error; inf when nothing was solved
    coplanar: np.ndarray  # (K,) world points (near-)coplanar

    @property
    def solved(self) -> np.ndarray:
        return np.isfinite(self.error)

    def pose(self, k: int) -> Pose:
        """Camera-to-world pose of problem k."""
        return Pose(matrix_to_quat(self.rotation[k]), self.translation[k]).inverse()


def _epnp_batch(pixels: np.ndarray, points: np.ndarray, cam: CameraIntrinsics) -> _Hypotheses:
    """EPnP on K independent problems at once: pixels (K, n, 2), points (K, n, 3).

    Builds each 2n x 12 homogeneous system tying camera-frame control points
    to the observations and recovers them from its null space, trying kernel
    dimensions 1-3 with Gauss-Newton-refined combination weights.  A candidate
    counts only with every point at z > 0 and a unique rigid alignment; the
    one with the lowest mean reprojection error wins (the smallest kernel on
    ties).
    """
    K, n, _ = points.shape
    control, alphas, coplanar = _control_points(points)

    # Rows: sum_j a_ij * (fx * x_j + (cx - u_i) * z_j) = 0 and the y analog.
    M = np.zeros((K, n, 2, 4, 3))
    M[:, :, 0, :, 0] = alphas * cam.fx
    M[:, :, 0, :, 2] = alphas * (cam.cx - pixels[:, :, 0])[..., None]
    M[:, :, 1, :, 1] = alphas * cam.fy
    M[:, :, 1, :, 2] = alphas * (cam.cy - pixels[:, :, 1])[..., None]
    _, _, Vt = np.linalg.svd(M.reshape(K, 2 * n, 12), full_matrices=False)
    null_basis = Vt[:, ::-1]  # rows ordered by ascending singular value
    world_dists = np.linalg.norm(control[:, _PAIR_A] - control[:, _PAIR_B], axis=-1)

    candidates, in_front = [], []
    for n_basis in (1, 2, 3):
        kernel = null_basis[:, :n_basis].reshape(K, n_basis, 4, 3)
        diffs = (kernel[:, :, _PAIR_A] - kernel[:, :, _PAIR_B]).transpose(0, 2, 1, 3)
        betas = _betas(diffs, world_dists)
        pts_cam = alphas @ np.einsum("kb,kbij->kij", betas, kernel)  # (K, n, 3)
        flip = np.sum(pts_cam[..., 2] > 0, axis=1) < n / 2
        pts_cam[flip] *= -1.0
        candidates.append(pts_cam)
        in_front.append(np.all(pts_cam[..., 2] > 0, axis=1))
    usable = np.stack(in_front, axis=1) & ~coplanar[:, None]  # (K, 3)

    R, t, collinear = _umeyama(points[:, None], np.stack(candidates, axis=1))
    errs = _reproj_errors(R, t, pixels[:, None], points[:, None], cam, 0.0).mean(axis=-1)
    errs = np.where(usable & ~collinear & np.isfinite(errs), errs, np.inf)
    best = np.argmin(errs, axis=1)
    rows = np.arange(K)
    return _Hypotheses(R[rows, best], t[rows, best], errs[rows, best], coplanar)


def epnp(corrs: Correspondences, cam: CameraIntrinsics) -> SolverReport:
    """Control-point PnP on all correspondences (no outlier handling).

    The K = 1 call of the batched EPnP core: raises ``DegenerateGeometry``
    for coplanar world points and ``CheiralityViolation`` when no candidate
    has every point in front of the camera.
    """
    if len(corrs) < MIN_CORRESPONDENCES:
        raise InsufficientMatches(
            f"epnp needs at least {MIN_CORRESPONDENCES} correspondences, got {len(corrs)}"
        )
    hyp = _epnp_batch(corrs.pixels[None], corrs.points[None], cam)
    if hyp.coplanar[0]:
        raise DegenerateGeometry(
            f"control points span less than {COPLANAR_VOLUME_EPS:g} m^3; "
            "points are (near-)coplanar"
        )
    if not np.isfinite(hyp.error[0]):
        raise CheiralityViolation("epnp found no candidate with all points in front of the camera")
    return SolverReport(
        pose=hyp.pose(0),
        inlier_count=len(corrs),
        mean_reprojection_error=float(hyp.error[0]),
        iterations=_BETA_GN_ITERS,
        converged=True,
    )


def apply_delta(pose: Pose, delta: np.ndarray) -> Pose:
    """Left-multiply `pose` by the rigid perturbation (exp(omega), nu).

    delta packs (omega_x, omega_y, omega_z, nu_x, nu_y, nu_z): rotation first,
    translation second.  The perturbed pose is R' = exp(omega) R and
    t' = exp(omega) t + nu.
    """
    delta = np.asarray(delta, dtype=np.float64).reshape(6)
    dq = quat_from_rotvec(delta[:3])
    R_delta = quat_to_matrix(dq)
    return Pose(quat_multiply(dq, pose.rotation), R_delta @ pose.translation + delta[3:])


def reprojection_residuals(
    corrs: Correspondences, cam: CameraIntrinsics, pose: Pose
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel residuals and their Jacobian for a camera-to-world pose.

    Residual per correspondence: observed - projected, stacked to a (2n,)
    vector.  The (2n, 6) Jacobian is taken with respect to the 6-vector
    perturbation used by ``apply_delta`` (3 rotation, 3 translation),
    evaluated at delta = 0.
    """
    if len(corrs) == 0:
        raise ValueError("no correspondences")
    pixels, points = corrs.pixels, corrs.points
    R = pose.rotation_matrix()
    Rwc = R.T
    pts_cam = (points - pose.translation) @ R
    z = pts_cam[:, 2]
    if np.any(z <= cam.near):
        raise CheiralityViolation("a correspondence projects behind the near plane")

    proj = cam.project(pts_cam)
    residuals = (pixels - proj).reshape(-1)

    # dq/d(omega) = R^T [P]_x, dq/d(nu) = -R^T  (q = camera-frame point).
    n = points.shape[0]
    P = points
    skew = np.zeros((n, 3, 3))
    skew[:, 0, 1] = -P[:, 2]
    skew[:, 0, 2] = P[:, 1]
    skew[:, 1, 0] = P[:, 2]
    skew[:, 1, 2] = -P[:, 0]
    skew[:, 2, 0] = -P[:, 1]
    skew[:, 2, 1] = P[:, 0]
    dq_domega = np.einsum("ij,njk->nik", Rwc, skew)
    dq_dnu = -Rwc  # constant across points

    inv_z = 1.0 / z
    dproj_dq = np.zeros((n, 2, 3))
    dproj_dq[:, 0, 0] = cam.fx * inv_z
    dproj_dq[:, 0, 2] = -cam.fx * pts_cam[:, 0] * inv_z**2
    dproj_dq[:, 1, 1] = cam.fy * inv_z
    dproj_dq[:, 1, 2] = -cam.fy * pts_cam[:, 1] * inv_z**2

    J = np.empty((n, 2, 6))
    J[:, :, :3] = -dproj_dq @ dq_domega
    J[:, :, 3:] = -dproj_dq @ dq_dnu
    return residuals, J.reshape(2 * n, 6)


def _robust_cost_and_weights(residuals: np.ndarray) -> tuple[float, np.ndarray]:
    """Huber cost and IRLS weights per correspondence (residuals are (2n,))."""
    errs = np.linalg.norm(residuals.reshape(-1, 2), axis=1)
    small = errs <= HUBER_DELTA_PX
    cost = float(
        np.sum(np.where(small, 0.5 * errs**2, HUBER_DELTA_PX * (errs - 0.5 * HUBER_DELTA_PX)))
    )
    weights = np.where(small, 1.0, HUBER_DELTA_PX / np.maximum(errs, 1e-12))
    return cost, weights


def refine_ba(corrs: Correspondences, cam: CameraIntrinsics, init_pose: Pose) -> SolverReport:
    """Pose-only bundle adjustment by Levenberg-Marquardt.

    Minimizes the Huber-robustified reprojection error (``HUBER_DELTA_PX``)
    starting from ``init_pose``, for at most ``LM_MAX_ITERS`` iterations.
    Correspondences behind the camera at the initial pose are excluded up
    front (at least 6 must remain); steps that raise the cost or push a kept
    point behind the camera are rejected and the damping increased, so the
    accepted-step cost is monotonically non-increasing.
    """
    if len(corrs) < MIN_CORRESPONDENCES:
        raise InsufficientMatches(
            f"refine_ba needs at least {MIN_CORRESPONDENCES} correspondences, got {len(corrs)}"
        )

    w2c = init_pose.inverse()
    z = (corrs.points @ w2c.rotation_matrix().T + w2c.translation)[:, 2]
    visible = z > cam.near
    if int(np.count_nonzero(visible)) < MIN_CORRESPONDENCES:
        raise CheiralityViolation(
            f"initial pose sees only {int(np.count_nonzero(visible))} correspondences"
        )
    active = corrs[visible]

    pose = init_pose
    residuals, J = reprojection_residuals(active, cam, pose)
    cost, weights = _robust_cost_and_weights(residuals)

    damping = LM_INIT_DAMPING
    converged = False
    for iterations in range(1, LM_MAX_ITERS + 1):
        w2 = np.repeat(weights, 2)
        JTJ = J.T @ (J * w2[:, None])
        g = J.T @ (w2 * residuals)

        for _ in range(25):
            try:
                step = np.linalg.solve(JTJ + damping * np.eye(6), -g)
                candidate = apply_delta(pose, step)
                cand_res, cand_J = reprojection_residuals(active, cam, candidate)
            except (np.linalg.LinAlgError, CheiralityViolation):
                damping *= 10.0
                continue
            cand_cost, cand_weights = _robust_cost_and_weights(cand_res)
            if cand_cost <= cost:
                break
            damping *= 10.0
        else:
            # No damping level lowered the cost: the gradient is numerically zero.
            converged = True
            break

        cost_drop = cost - cand_cost
        pose, residuals, J = candidate, cand_res, cand_J
        cost, weights = cand_cost, cand_weights
        damping = max(damping / 3.0, 1e-12)
        if float(np.linalg.norm(step)) < LM_STEP_TOL or cost_drop < LM_COST_TOL:
            converged = True
            break

    errs = np.linalg.norm(residuals.reshape(-1, 2), axis=1)
    return SolverReport(
        pose=pose,
        inlier_count=len(active),
        mean_reprojection_error=float(errs.mean()),
        iterations=iterations,
        converged=converged,
    )


@traced("pnp.solve_pnp")
def solve_pnp(corrs: Correspondences, cam: CameraIntrinsics, seed: int = 0) -> SolverReport:
    """Robust pose solve: seeded RANSAC over minimal EPnP + LM refinement.

    The correspondences are canonicalized (sorted) before sampling, so the
    result is invariant to input order for a fixed ``seed``.  Runs the full,
    fixed budget of ``RANSAC_ITERATIONS`` for determinism: all minimal
    samples are drawn, solved by one batched EPnP and scored together.
    ``refine_ba`` then refines the winning hypothesis on its inliers; the
    reported inliers and error are the refined pose's, over all of ``corrs``.
    """
    n = len(corrs)
    if n < MIN_CORRESPONDENCES:
        raise InsufficientMatches(
            f"solve_pnp needs at least {MIN_CORRESPONDENCES} correspondences, got {n}"
        )

    pixels, points = corrs.pixels, corrs.points
    order = np.lexsort(
        (points[:, 2], points[:, 1], points[:, 0], pixels[:, 1], pixels[:, 0])
    )
    corrs = corrs[order]
    pixels, points = corrs.pixels, corrs.points

    rng = np.random.default_rng(seed)
    samples = np.empty((RANSAC_ITERATIONS, MIN_CORRESPONDENCES), dtype=np.intp)
    for k in range(RANSAC_ITERATIONS):
        samples[k] = rng.choice(n, size=MIN_CORRESPONDENCES, replace=False)
    hyp = _epnp_batch(pixels[samples], points[samples], cam)
    solved = np.flatnonzero(hyp.solved)

    counts = np.zeros(solved.size, dtype=np.intp)
    mean_errs = np.full(solved.size, np.inf)
    block = max(1, _SCORE_BLOCK // n)
    for start in range(0, solved.size, block):
        ks = slice(start, start + block)
        hyps = solved[ks]
        errs = _reproj_errors(
            hyp.rotation[hyps], hyp.translation[hyps], pixels, points, cam, cam.near
        )
        inliers = errs < INLIER_THRESHOLD_PX
        counts[ks] = np.count_nonzero(inliers, axis=1)
        with np.errstate(invalid="ignore"):  # 0 / 0 where a hypothesis has no inlier
            mean_errs[ks] = np.where(inliers, errs, 0.0).sum(axis=1) / counts[ks]

    # Most inliers, then the lowest mean inlier error, then the earliest sample.
    eligible = counts >= MIN_INLIERS
    if not np.any(eligible):
        raise NoConsensus(
            f"no hypothesis reached {MIN_INLIERS} inliers at "
            f"{INLIER_THRESHOLD_PX} px over {RANSAC_ITERATIONS} iterations"
        )
    top = eligible & (counts == counts[eligible].max())
    winner = int(solved[np.argmin(np.where(top, mean_errs, np.inf))])
    winner_errs = _reproj_errors(
        hyp.rotation[winner], hyp.translation[winner], pixels, points, cam, cam.near
    )
    # Every inlier has a finite error at the winner, so it lies in front of
    # the near plane, and there are at least MIN_INLIERS of them.
    refined = refine_ba(corrs[winner_errs < INLIER_THRESHOLD_PX], cam, hyp.pose(winner))

    w2c = refined.pose.inverse()
    final_errs = _reproj_errors(
        w2c.rotation_matrix(), w2c.translation, pixels, points, cam, cam.near
    )
    final_inliers = final_errs < INLIER_THRESHOLD_PX
    mean_err = float(final_errs[final_inliers].mean()) if np.any(final_inliers) else np.inf
    return SolverReport(
        pose=refined.pose,
        inlier_count=int(np.count_nonzero(final_inliers)),
        mean_reprojection_error=mean_err,
        iterations=refined.iterations,
        converged=refined.converged,
    )
