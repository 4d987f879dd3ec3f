"""Relocalization benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload oracle-offset --seed 0 --seconds 20 --trace 0

Run from the repository root.  The run

  1. generates the workload's inputs from --seed in a separate process
     (perfbench/generate.py), so set-up time and peak memory below count
     only the library's own work;
  2. loads the scene (set-up), builds and saves the anchor map from the
     trajectory (map build), reloads the map (set-up) and checks the reload
     equals what was built;
  3. on the query workloads, sends queries one at a time, the next only
     after the previous ``relocalize()`` returned, for --seconds; on
     map-build, repeats step 2's build for --seconds instead;
  4. scores every query against its ground-truth pose and prints a
     human-readable report, then, as the last line, one JSON object with
     the gated metrics (--trace 0) or the per-layer metrics (--trace 1).

With --trace 1 every timed operation runs twice, untraced and then traced,
so the report can give the tracing overhead on the same inputs; the traced
copy must return the same result.  perfbench/README.md defines each metric.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: set before numpy is imported anywhere.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, self_times_ms  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle-offset", "reference-trajectory", "map-build")
SETUP_REPEATS = 3  # scene and map loads per run; set-up time is their median
MIN_BUILDS = 2  # map-build keeps building past --seconds until it has this many
MIN_LOCALIZED = 2  # query workloads keep querying until this many returned a pose
MIN_TRACED_QUERIES = 4  # a traced run sees both failed and localized queries
HEADLINE = (0.10, 1.0)  # recall thresholds: meters, degrees (the evaluate headline)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    None below 20 samples, where that percentile would lie under the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return None
    return math.floor(100.0 * (n - 10) / n), ordered[n - 11]


def machine_info() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


class Bench:
    """State of one run: inputs, loaded library modules, samples and checks."""

    def __init__(self, workload: str, seconds: float, inputs: Path, work: Path, tracer):
        sys.path.insert(0, str(ROOT / "src"))
        self.lib = importlib.import_module("splatreloc")
        self.scene_mod = importlib.import_module("splatreloc.scene")
        self.anchors_mod = importlib.import_module("splatreloc.anchors")
        self.reloc_mod = importlib.import_module("splatreloc.relocalize")
        self.workload = workload
        self.seconds = seconds
        self.inputs = inputs
        self.work = work
        self.tracer = tracer
        self.manifest = json.loads((inputs / "queries.json").read_text())
        self.trajectory = self.lib.load_trajectory(inputs / "trajectory.txt")
        self.queries = [
            (
                self.lib.load_ppm(inputs / "queries" / q["image"]),
                self.lib.Pose.from_array(np.array(q["pose"])),
                q["oracle_seed"],
            )
            for q in self.manifest["queries"]
        ]
        self.checks_failed: list[str] = []
        self.failed_ops: set[str] = set()  # ops that raised or failed a check
        self.exceptions = 0
        self.scene_load_s: list[float] = []
        self.db_load_s: list[float] = []
        self.build_s: list[float] = []  # build_anchor_db + save_anchor_db
        self.build_anchors: list[int] = []
        self.untraced_ms: list[float] = []  # paired twins of traced ops (--trace 1)
        self.op_ms: list[float] = []  # main-op wall times, traced when tracing
        self.results: list[tuple[int, int, object]] = []  # (op id, query index, result)
        self.query_phase_s = 0.0
        self.scene = None
        self.db = None

    # -- checks -----------------------------------------------------------

    def check(self, ok: bool, message: str, op: str) -> None:
        if not ok:
            self.checks_failed.append(f"{op}: {message}")
            self.failed_ops.add(op)

    def check_db(self, built, loaded, op: str) -> None:
        """The reloaded map must equal the built one at its stored precision."""
        self.check(loaded.camera == built.camera, "reloaded camera differs", op)
        self.check(loaded.spacing == built.spacing, "reloaded spacing differs", op)
        self.check(len(loaded) == len(built), "reloaded anchor count differs", op)
        for a, b in zip(built.records, loaded.records):
            tag = f"reloaded anchor {a.anchor_id}"
            self.check(
                (a.anchor_id, a.source_index) == (b.anchor_id, b.source_index),
                f"{tag}: id or source frame differs", op,
            )
            self.check(
                np.array_equal(a.pose.as_array(), b.pose.as_array()), f"{tag}: pose differs", op
            )
            self.check(
                np.array_equal(a.descriptor, b.descriptor), f"{tag}: descriptor differs", op
            )
            self.check(
                np.array_equal(np.round(a.rgb * 255.0), np.round(b.rgb * 255.0)),
                f"{tag}: RGB differs at 8-bit precision", op,
            )
            self.check(
                np.array_equal(a.depth.astype(np.float32), b.depth.astype(np.float32)),
                f"{tag}: depth differs at float32 precision", op,
            )

    @staticmethod
    def fingerprint(obj) -> bytes:
        """Bytes that differ when a query result, a map or a scene differs."""
        if hasattr(obj, "final_pose"):
            return obj.status.encode() + obj.final_pose.as_array().tobytes()
        if hasattr(obj, "records"):
            return b"".join(
                r.pose.as_array().tobytes() + r.descriptor.tobytes() + r.depth.tobytes()
                for r in obj.records
            )
        return b"".join(a.tobytes() for a in obj.arrays().values())

    # -- timed operations ---------------------------------------------------

    def timed(self, op_id: int, fn):
        """Run fn once untraced; with tracing, once more traced (the kept result)."""
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if self.tracer is None:
            return result, elapsed
        if op_id >= 0:
            self.untraced_ms.append(elapsed * 1e3)
        self.tracer.op_id = op_id
        self.tracer.install()
        try:
            t0 = time.perf_counter()
            traced = fn()
            elapsed = time.perf_counter() - t0
        finally:
            self.tracer.uninstall()
            self.tracer.op_id = -1
        self.check(
            self.fingerprint(result) == self.fingerprint(traced),
            "traced result differs from the untraced one",
            f"op {op_id}",
        )
        return traced, elapsed

    def load_scene(self) -> None:
        for _ in range(SETUP_REPEATS):
            self.scene, elapsed = self.timed(
                -1, lambda: self.scene_mod.load_splat_scene(self.inputs / "scene.gsplat")
            )
            self.scene_load_s.append(elapsed)

    def build_map(self, op_id: int) -> None:
        """Build and save the anchor map (timed), then reload it (set-up) and check."""
        path = self.work / "anchors"
        cam = self.lib.DEFAULT_CAMERA
        spacing = self.manifest["anchor_spacing"]

        def build_and_save():
            db = self.anchors_mod.build_anchor_db(self.scene, self.trajectory, cam, spacing)
            self.anchors_mod.save_anchor_db(path, db)
            return db

        built, elapsed = self.timed(op_id, build_and_save)
        self.build_s.append(elapsed)
        self.build_anchors.append(len(built))
        for _ in range(SETUP_REPEATS):
            loaded, elapsed = self.timed(-1, lambda: self.anchors_mod.load_anchor_db(path))
            self.db_load_s.append(elapsed)
            self.check_db(built, loaded, f"map build {len(self.build_s) - 1}")
        self.db = loaded

    def matcher(self, k: int):
        _, gt_pose, oracle_seed = self.queries[k]
        if self.workload == "reference-trajectory":
            return self.lib.ReferenceMatcher()
        config = self.lib.OracleConfig(
            pixel_noise_sigma=0.5, outlier_fraction=0.2, seed=oracle_seed
        )
        return self.lib.OracleMatcher(gt_pose, self.db.camera, config)

    def query(self, op_id: int) -> None:
        k = op_id % len(self.queries)
        image = self.queries[k][0]

        def one_query():
            return self.reloc_mod.relocalize(image, self.scene, self.db, self.matcher(k))

        try:
            result, elapsed = self.timed(op_id, one_query)
        except Exception as exc:  # counted against the attempts, never propagated
            self.exceptions += 1
            self.check(False, f"raised {type(exc).__name__}: {exc}", f"query {op_id}")
            return
        self.op_ms.append(elapsed * 1e3)
        self.results.append((op_id, k, result))

    def localized(self) -> int:
        return sum(1 for _, _, r in self.results if r.status != "failed")

    def run(self) -> None:
        self.load_scene()
        if self.workload == "map-build":
            deadline = time.perf_counter() + self.seconds
            op_id = 0
            minimum = 1 if self.tracer else MIN_BUILDS
            while op_id < minimum or time.perf_counter() < deadline:
                self.build_map(op_id)
                self.op_ms.append(self.build_s[-1] * 1e3)
                op_id += 1
            return
        self.build_map(-2)
        # generate.py mirrors build_anchor_db's anchor choice; a drift shows here.
        anchor_frames = {r.source_index for r in self.db.records}
        offset_queries = self.workload == "oracle-offset"
        for k, q in enumerate(self.manifest["queries"]):
            self.check(
                (q["frame"] in anchor_frames) == offset_queries,
                f"source frame {q['frame']} is {'not ' if offset_queries else ''}an anchor",
                f"input {k}",
            )
        start = time.perf_counter()
        deadline = start + self.seconds
        op_id = 0
        while (
            time.perf_counter() < deadline
            or (self.tracer is not None and op_id < MIN_TRACED_QUERIES)
            or (self.localized() < MIN_LOCALIZED and op_id < 2 * len(self.queries))
        ):
            self.query(op_id)
            op_id += 1
        self.query_phase_s = time.perf_counter() - start

    # -- scoring --------------------------------------------------------------

    def score(self) -> dict:
        """Accuracy of every returned pose against its ground truth."""
        lib = self.lib
        evaluation = importlib.import_module("splatreloc.evaluation")
        if not self.results:
            return {}
        est, gt = lib.Trajectory(), lib.Trajectory()
        for i, (op_id, k, result) in enumerate(self.results):
            op = f"query {op_id}"
            pose = result.final_pose.as_array()
            self.check(bool(np.all(np.isfinite(pose))), "pose is not finite", op)
            self.check(
                result.status in ("converged", "max_iterations", "failed"),
                f"unknown status {result.status!r}", op,
            )
            self.check(0 <= result.anchor_id < len(self.db), "bad anchor id", op)
            est.append(i, result.final_pose)
            gt.append(i, self.queries[k][1])
        _, trans, rot = evaluation.pose_errors(est, gt)
        for i, (op_id, _, result) in enumerate(self.results):
            if result.status == "converged":
                self.check(
                    trans[i] < HEADLINE[0] and rot[i] < HEADLINE[1],
                    f"converged {trans[i]:.3f} m / {rot[i]:.2f} deg from ground truth",
                    f"query {op_id}",
                )
        failed = sum(1 for _, _, r in self.results if r.status == "failed") + self.exceptions
        attempted = len(self.results) + self.exceptions
        return {
            "query_fail_frac": failed / attempted,
            "recall_10cm_1deg": evaluation.recall_at(trans, rot, *HEADLINE)
            * len(self.results)
            / attempted,
            "ate_median_m": evaluation.ate_statistics(trans).median,
        }

    def steps(self) -> list[tuple[float, int]]:
        """(wall ms, steps) per op: a localized query and its iterations, or a build and its anchors."""
        if self.workload == "map-build":
            return [(s * 1e3, n) for s, n in zip(self.build_s, self.build_anchors)]
        ops = [(ms, len(r.traces), r.status) for ms, (_, _, r) in zip(self.op_ms, self.results)]
        localized = [(ms, n) for ms, n, status in ops if status != "failed"]
        # A pool where every query failed still gets a (much lower) reading, never 0.
        return localized or [(ms, n) for ms, n, _ in ops]

    def nearest_anchor(self, k: int) -> int:
        position = self.queries[k][1].translation
        dists = [np.linalg.norm(r.pose.translation - position) for r in self.db.records]
        return int(np.argmin(dists))


def end_to_end(bench: Bench) -> dict:
    """The gated metrics: defined, non-zero and steady on every workload.

    The step time is a mean over the whole timed phase, not a median over
    operations: the shared host runs about half the time at 1.6x slower in
    phases of 0.1 s to minutes, and a median jumps between those two speeds.
    """
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    steps = bench.steps()
    return {
        "step_ms_mean": (sum(ms for ms, _ in steps) / sum(n for _, n in steps), "ms"),
        "setup_s": (median(bench.scene_load_s) + median(bench.db_load_s), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(bench: Bench) -> dict:
    """Per-layer metrics from the traced copies of the run's operations."""
    spans = bench.tracer.spans
    selfs = self_times_ms(spans)
    main = [i for i, s in enumerate(spans) if s[4] >= 0]  # spans inside main ops

    def of(name, where=main):
        return [spans[i] for i in where if spans[i][0] == name]

    def ms(span):
        return (span[2] - span[1]) / 1e6

    everywhere = range(len(spans))
    epnp = of("pnp.epnp")
    solve = of("pnp.solve_pnp")
    ba = of("pnp.refine_ba")
    renders = of("renderer.render")
    reloc_idx = [i for i in main if spans[i][0] == "relocalize.relocalize"]
    lifts = of("relocalize.lift_to_3d")
    detects = of("features.detect_and_describe")
    pairs = of("features.match_features") or of("features.oracle_match")
    retrieves = [(i, spans[i]) for i in main if spans[i][0] == "anchors.retrieve"]
    hits = [
        s[6]["anchor"] == bench.nearest_anchor(s[4] % len(bench.queries))
        for _, s in retrieves
        if s[5]
    ]

    roots = [i for i in main if spans[i][3] < 0]
    op_total = sum(ms(spans[i]) for i in roots) or 1.0
    layer_self: dict[str, float] = {}
    for i in main:
        layer = spans[i][0].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]
    epnp_self = sum(selfs[i] for i in main if spans[i][0] == "pnp.epnp")

    traced_p50 = median(bench.op_ms)
    untraced_p50 = median(bench.untraced_ms)
    metrics = {
        "pnp.solve_pnp_ms_p50": (median(map(ms, solve)), "ms"),
        "pnp.epnp_calls": (len(epnp), "count"),
        "pnp.epnp_ms_total": (sum(map(ms, epnp)), "ms"),
        "pnp.hypothesis_yield": (mean(s[5] for s in epnp), "ratio"),
        "pnp.refine_ba_ms_p50": (median(map(ms, ba)), "ms"),
        "pnp.refine_ba_iters": (mean(s[6].get("iters", 0) for s in ba), "count"),
        "pnp.inlier_frac": (
            sum(s[6].get("inliers", 0) for s in solve)
            / max(1, sum(s[6].get("corrs", 0) for s in solve)),
            "ratio",
        ),
        "renderer.render_calls": (len(renders), "count"),
        "renderer.render_ms_p50": (median(map(ms, renders)), "ms"),
        "renderer.render_ms_total": (sum(map(ms, renders)), "ms"),
        "relocalize.iterations_per_query": (
            mean(spans[i][6].get("iters", 0) for i in reloc_idx),
            "count",
        ),
        "relocalize.converged_frac": (
            mean(spans[i][6].get("status") == "converged" for i in reloc_idx),
            "ratio",
        ),
        "relocalize.lift_to_3d_ms_p50": (median(map(ms, lifts)), "ms"),
        "relocalize.lift_yield": (
            sum(s[6].get("corrs", 0) for s in lifts)
            / max(1, sum(s[6].get("matches", 0) for s in lifts)),
            "ratio",
        ),
        "relocalize.self_ms_p50": (median(selfs[i] for i in reloc_idx), "ms"),
        "features.detect_and_describe_calls": (len(detects), "count"),
        "features.detect_and_describe_ms_p50": (median(map(ms, detects)), "ms"),
        "features.keypoints_per_call": (mean(s[6].get("keypoints", 0) for s in detects), "count"),
        "features.match_features_ms_p50": (median(map(ms, of("features.match_features"))), "ms"),
        "features.matches_per_pair": (mean(s[6].get("matches", 0) for s in pairs), "count"),
        "features.oracle_match_ms_p50": (median(map(ms, of("features.oracle_match"))), "ms"),
        "anchors.retrieve_ms_p50": (median(ms(s) for _, s in retrieves), "ms"),
        "anchors.retrieve_hit_frac": (mean(hits), "ratio"),
        "anchors.global_descriptor_ms_p50": (
            median(map(ms, of("anchors.global_descriptor"))),
            "ms",
        ),
        "anchors.save_anchor_db_ms": (
            median(map(ms, of("anchors.save_anchor_db", everywhere))),
            "ms",
        ),
        "anchors.load_anchor_db_ms": (
            median(map(ms, of("anchors.load_anchor_db", everywhere))),
            "ms",
        ),
        "scene.load_splat_scene_ms": (
            median(map(ms, of("scene.load_splat_scene", everywhere))),
            "ms",
        ),
        "trace.op_ms_p50": (traced_p50, "ms"),
        "trace.untraced_op_ms_p50": (untraced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
    }
    for layer in ("pnp", "renderer", "features", "anchors", "relocalize"):
        metrics[f"share.{layer}"] = (layer_self.get(layer, 0.0) / op_total, "ratio")
    metrics["share.pnp.epnp"] = (epnp_self / op_total, "ratio")
    return metrics


def report(bench: Bench, seed: int, e2e: dict, accuracy: dict) -> None:
    """Human-readable lines: every end-to-end metric the workload defines, with units."""
    print(f"# workload {bench.workload}, seed {seed}, --seconds {bench.seconds:g}")
    print(f"# machine {json.dumps(machine_info(), sort_keys=True)}")
    rows = []
    if bench.workload != "map-build":
        n = len(bench.op_ms)
        t = tail(bench.op_ms)
        rows += [
            ("queries_attempted", n + bench.exceptions, "count"),
            ("query_ms_p50", median(bench.op_ms), "ms"),
            (
                "query_ms_tail",
                t[1] if t else "n/a",
                f"ms (p{t[0]:g} of n={n})" if t else f"ms (n={n}: needs 20 queries)",
            ),
            ("queries_per_s", n / bench.query_phase_s if bench.query_phase_s else 0.0, "1/s"),
            ("query_fail_frac", accuracy.get("query_fail_frac", "n/a"), "ratio"),
            ("recall_10cm_1deg", accuracy.get("recall_10cm_1deg", "n/a"), "ratio"),
            ("ate_median_m", accuracy.get("ate_median_m", "n/a"), "m"),
        ]
    rows += [
        ("map_builds", len(bench.build_s), "count"),
        ("map_build_s", median(bench.build_s), "s"),
        ("step_ms_p50", median(ms / n for ms, n in bench.steps()), "ms"),
    ]
    rows += [(name, value, unit) for name, (value, unit) in e2e.items()]
    for name, value, unit in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<22} {text:>12} {unit}")
    for message in bench.checks_failed:
        print(f"CHECK FAILED: {message}")


def report_spans(bench: Bench) -> None:
    """Calls, total and self time per span name, inside the timed operations."""
    spans = bench.tracer.spans
    selfs = self_times_ms(spans)
    totals: dict[str, list[float]] = {}
    for span, self_ms in zip(spans, selfs):
        if span[4] >= 0:
            entry = totals.setdefault(span[0], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (span[2] - span[1]) / 1e6
            entry[2] += self_ms
    print(f"# spans inside timed ops: {'name':<30} {'calls':>7} {'total_ms':>11} {'self_ms':>11}")
    for name, (calls, total, self_ms) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        print(f"#   {name:<52} {calls:>7} {total:>11.1f} {self_ms:>11.1f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Relocalization benchmark (closed loop).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "splatreloc" / "__init__.py").is_file():
        print(f"error: no splatreloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so the generator process is killed and the scratch dir removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "generate.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(inputs)],
            check=True, timeout=170,
        )
        tracer = Tracer() if args.trace else None
        bench = Bench(args.workload, args.seconds, inputs, work, tracer)
        bench.run()
        accuracy = bench.score()
        e2e = end_to_end(bench)
        report(bench, args.seed, e2e, accuracy)
        if tracer is not None:
            report_spans(bench)
            tracer.write(ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
            metrics = per_layer(bench)
        else:
            metrics = e2e
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(bench.build_s) if args.workload == "map-build" else (
        len(bench.results) + bench.exceptions
    )
    failed = len(bench.failed_ops)
    print(json.dumps({
        "correct": not bench.checks_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
