"""Spans and call counters recorded around the benchmark's calls into the
program's layers.

A span is ``[name, start, end, parent index]``; spans stay in memory and are
written out once, when the run ends.  Calls too frequent for a span each
(compute methods, the oracle's per-state functions) go to counters of total
seconds and calls instead.  Counters are kept per thread, because the
runtime calls compute methods from its partition threads.
"""

from __future__ import annotations

import contextlib
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._local = threading.local()
        self._tables: list[dict[str, list]] = []
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def spanned(self, name: str, fn):
        """``fn`` wrapped to record a span ``name`` around each call."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _table(self) -> dict[str, list]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            with self._lock:
                self._tables.append(table)
        return table

    def counted(self, name: str, fn, clock):
        """``fn`` wrapped to add its duration and one call to counter ``name``.

        Pass ``time.thread_time`` as the clock for calls made from several
        threads: under the interpreter lock a wall-clock interval would also
        cover the other thread's turn.
        """
        table_of = self._table

        def wrapper(*args):
            table = table_of()
            t0 = clock()
            result = fn(*args)
            elapsed = clock() - t0
            cell = table.get(name)
            if cell is None:
                table[name] = [elapsed, 1]
            else:
                cell[0] += elapsed
                cell[1] += 1
            return result

        return wrapper

    def reset_counters(self) -> None:
        with self._lock:
            for table in self._tables:
                table.clear()

    def counter(self, name: str) -> tuple[float, int]:
        """(seconds, calls) summed over threads."""
        with self._lock:
            cells = [t[name] for t in self._tables if name in t]
        return sum(c[0] for c in cells), sum(c[1] for c in cells)

    def duration(self, name: str, since: int = 0) -> float:
        """Total duration of the spans called ``name`` from index ``since``."""
        return sum(s[2] - s[1] for s in self.spans[since:] if s[0] == name)

    def self_time(self, name: str, since: int = 0) -> float:
        """Duration of the spans called ``name`` minus what their child spans
        cover (children run on the same thread, so they never overlap)."""
        total = 0.0
        for i, s in enumerate(self.spans[since:], since):
            if s[0] != name:
                continue
            children = sum(c[2] - c[1] for c in self.spans[i + 1:] if c[3] == i)
            total += s[2] - s[1] - children
        return total


def clock_bias(clock, calls: int = 20000) -> float:
    """Seconds a counter adds to each call it measures: the part of its two
    clock readings that falls inside the interval, found by counting calls
    of an empty function."""
    probe = Tracer()
    wrapped = probe.counted("probe", lambda: None, clock)
    for _ in range(calls):
        wrapped()
    seconds, n = probe.counter("probe")
    return seconds / n


@contextlib.contextmanager
def patched(module, attr: str, wrap):
    """Replace ``module.attr`` by ``wrap(module.attr)`` for the block."""
    original = getattr(module, attr)
    setattr(module, attr, wrap(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class NoTrace:
    """Stand-in for ``Tracer`` in untraced operations."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield
