"""In-memory span tracer that wraps the library's functions from outside.

``relocalize.py`` binds the functions it calls at import time, ``solve_pnp``
calls ``epnp`` and ``refine_ba`` through the ``pnp`` module's globals, and
``build_anchor_db`` calls ``render`` and ``global_descriptor`` through the
``anchors`` module's globals.  Each target below is therefore patched where
its caller looks the name up.  Nothing under ``src/`` is changed.

A span is (name, start ns, end ns, parent span index, op id, ok, attrs).  Spans
stay in memory while the benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

# (module where the caller looks the name up, attribute, span name)
TARGETS = [
    ("splatreloc.scene", "load_splat_scene", "scene.load_splat_scene"),
    ("splatreloc.anchors", "build_anchor_db", "anchors.build_anchor_db"),
    ("splatreloc.anchors", "save_anchor_db", "anchors.save_anchor_db"),
    ("splatreloc.anchors", "load_anchor_db", "anchors.load_anchor_db"),
    ("splatreloc.anchors", "render", "renderer.render"),
    ("splatreloc.anchors", "global_descriptor", "anchors.global_descriptor"),
    ("splatreloc.relocalize", "relocalize", "relocalize.relocalize"),
    ("splatreloc.relocalize", "retrieve", "anchors.retrieve"),
    ("splatreloc.relocalize", "render", "renderer.render"),
    ("splatreloc.relocalize", "detect_and_describe", "features.detect_and_describe"),
    ("splatreloc.relocalize", "match_features", "features.match_features"),
    ("splatreloc.relocalize", "oracle_match", "features.oracle_match"),
    ("splatreloc.relocalize", "lift_to_3d", "relocalize.lift_to_3d"),
    ("splatreloc.relocalize", "solve_pnp", "pnp.solve_pnp"),
    ("splatreloc.pnp", "epnp", "pnp.epnp"),
    ("splatreloc.pnp", "refine_ba", "pnp.refine_ba"),
]


def _attrs(name: str, args: tuple, result) -> dict:
    """Counts taken where the work happens, so ratios have their base."""
    if name == "pnp.solve_pnp":
        return {"inliers": result.inlier_count, "corrs": len(args[0])}
    if name == "pnp.refine_ba":
        return {"iters": result.iterations}
    if name == "relocalize.lift_to_3d":
        return {"matches": len(args[0]), "corrs": len(result)}
    if name == "features.detect_and_describe":
        return {"keypoints": len(result[0])}
    if name in ("features.match_features", "features.oracle_match"):
        matches = result if name == "features.match_features" else result[0]
        return {"matches": len(matches)}
    if name == "anchors.retrieve":
        return {"anchor": int(result)}
    if name == "relocalize.relocalize":
        return {"status": result.status, "iters": len(result.traces)}
    return {}


class Tracer:
    """Records spans around the patched functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: int = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id, True, {}])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[index][5] = False
                raise
            finally:
                self.spans[index][2] = time.perf_counter_ns()
                self._stack.pop()
            self.spans[index][6] = _attrs(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: the only output the tracer does."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "op", "ok", "attrs")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times_ms(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover, in ms.

    Children run inside their parent on one thread, so they never overlap
    each other and their durations simply subtract.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    return [(s[2] - s[1] - c) / 1e6 for s, c in zip(spans, child_ns)]
