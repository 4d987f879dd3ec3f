"""Named timing spans recorded by the library's own entry points.

An entry point is wrapped with ``@traced("layer.function")``.  With no sink
installed the wrapper calls straight through.  Inside ``with recording() as
spans:`` every wrapped call appends ``(name, start_ns, end_ns)`` to
``spans`` when it returns or raises; times come from ``time.perf_counter_ns``.
The sink is a context variable, so a recording sees only the calls made in
its own thread (or asyncio task).  Spans recorded in another process come
back through ``extend``; ``perf_counter_ns`` reads CLOCK_MONOTONIC on Linux,
so their times compare with the caller's.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator, TypeVar

F = TypeVar("F", bound=Callable)
Span = tuple[str, int, int]

_sink: ContextVar[list[Span] | None] = ContextVar("splatreloc_span_sink", default=None)


def traced(name: str) -> Callable[[F], F]:
    """Record each call of the decorated function as a span called ``name``."""

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sink = _sink.get()
            if sink is None:
                return fn(*args, **kwargs)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append((name, start, time.perf_counter_ns()))

        return wrapper  # type: ignore[return-value]

    return decorate


@contextmanager
def recording() -> Iterator[list[Span]]:
    """Collect spans into a fresh list; the previous sink returns on exit."""
    spans: list[Span] = []
    token = _sink.set(spans)
    try:
        yield spans
    finally:
        _sink.reset(token)


def extend(recorded: Iterable[Span]) -> None:
    """Append spans recorded elsewhere (e.g. a worker process) to the active sink."""
    sink = _sink.get()
    if sink is not None:
        sink.extend(recorded)
