"""Tests for the library's span hook."""

import threading
import time

import pytest

from splatreloc import (
    build_anchor_db,
    detect_and_describe,
    load_matches,
    match_features,
    oracle_match,
    recording,
    render,
    solve_pnp,
    traced,
)
from splatreloc.errors import MatchFileError


@traced("test.add")
def add(a, b=0):
    """Sum of two numbers."""
    return a + b


@traced("test.fail")
def fail():
    raise RuntimeError("boom")


class TestTraced:
    def test_no_sink_records_nothing(self):
        assert add(2, b=3) == 5
        with recording() as spans:
            pass
        assert spans == []

    def test_records_one_span_per_call(self):
        with recording() as spans:
            assert add(2, b=3) == 5
            assert add(1) == 1
        assert [name for name, _, _ in spans] == ["test.add", "test.add"]
        assert all(isinstance(start, int) and start <= end for _, start, end in spans)

    def test_raising_call_leaves_one_span(self):
        with recording() as spans:
            with pytest.raises(RuntimeError, match="boom"):
                fail()
        assert [name for name, _, _ in spans] == ["test.fail"]

    def test_metadata_survives(self):
        assert add.__name__ == "add"
        assert add.__doc__ == "Sum of two numbers."
        assert add.__wrapped__(4, 5) == 9

    def test_library_entry_points_keep_their_names(self):
        for fn in (render, detect_and_describe, match_features, oracle_match, load_matches, solve_pnp):
            assert fn.__name__ == fn.__wrapped__.__name__
            assert fn.__doc__ == fn.__wrapped__.__doc__


class TestRecording:
    def test_nested_recording_restores_outer_sink(self):
        with recording() as outer:
            add(1)
            with recording() as inner:
                add(2)
            add(3)
        assert len(outer) == 2 and len(inner) == 1
        add(4)
        assert len(outer) == 2

    def test_sink_restored_when_body_raises(self):
        with recording() as outer:
            with pytest.raises(RuntimeError):
                with recording() as inner:
                    fail()
            add(1)
        assert [name for name, _, _ in inner] == ["test.fail"]
        assert [name for name, _, _ in outer] == ["test.add"]
        add(2)
        assert len(outer) == 1

    def test_other_threads_are_not_recorded(self):
        with recording() as spans:
            worker = threading.Thread(target=add, args=(1,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            add(2)
        assert len(spans) == 1

    def test_failed_library_call_is_recorded(self, tmp_path):
        path = tmp_path / "bad.matches"
        path.write_text("not a match file\n")
        with recording() as spans:
            with pytest.raises(MatchFileError):
                load_matches(path, (64, 48), (64, 48))
        assert [name for name, _, _ in spans] == ["features.load_matches"]

    def test_worker_renders_reach_the_caller(self, small_world, cam):
        """Anchor renders run in worker processes; their spans join the caller's sink."""
        scene, trajectory = small_world
        start = time.perf_counter_ns()
        with recording() as spans:
            db = build_anchor_db(scene, trajectory, cam, spacing=3.0)
        end = time.perf_counter_ns()
        assert [name for name, _, _ in spans] == ["renderer.render"] * len(db)
        assert all(start <= t0 <= t1 <= end for _, t0, t1 in spans)
