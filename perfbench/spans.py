"""In-memory span recorder that wraps specgrad's public functions from outside.

The benchmark never edits the package: ``Tracer.wrap`` replaces a module
function or a class method with a wrapper that records one span per call
and restores the original on ``Tracer.restore``. A span is the tuple

    (id, name, start, end, parent_id, workload, cell_id)

with times from ``time.perf_counter``. Calls are synchronous on one
thread, so a span's children lie inside it and its self time is its
duration minus the durations of its direct children. The layer of a span
is the part of its name before the first dot; spans named ``perfbench.*``
are the benchmark's own result checks and belong to no program layer.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "workload", "cell")
CHECK_SPAN = "perfbench.check"


class Tracer:
    """Records spans for one workload until ``restore`` is called."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.cell = -1
        self.cells = 0
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None, starts_cell: bool = False) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``after(args, kwargs, result)`` runs once the span has closed.
        ``starts_cell`` gives every call a fresh cell id that the spans
        opened inside it carry. An attribute the program no longer has is
        listed in ``missing`` instead of failing the run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            if starts_cell:
                tracer.cell = tracer.cells
                tracer.cells += 1
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tracer.workload, tracer.cell))
                if starts_cell:
                    tracer.cell = -1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def check_span(self, fn, *args):
        """Run a result check as a ``perfbench.check`` span, so its time is
        taken out of the enclosing program spans."""
        sid = self.next_id
        self.next_id = sid + 1
        parent = self.stack[-1] if self.stack else -1
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(
                (sid, CHECK_SPAN, start, time.perf_counter(), parent, self.workload, self.cell)
            )

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans (wrappers stay installed)."""
        self.spans.clear()
        self.next_id = 0
        self.cells = 0


def write_csv(spans: list[tuple], path: str) -> None:
    """Write spans in id order, one row per span."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPAN_FIELDS)
        writer.writerows(sorted(spans))


def summarize_spans(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total`` seconds and ``self`` seconds."""
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, _, _, _ in spans:
        entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[sid]
    return out


def root_time(spans: list[tuple]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for _, _, start, end, parent, _, _ in spans if parent < 0)


def layer_self_time(summary: dict[str, dict[str, float]], layer: str) -> float:
    """Self seconds of every span whose name starts with ``layer + '.'``."""
    prefix = layer + "."
    return sum(v["self"] for k, v in summary.items() if k.startswith(prefix))
