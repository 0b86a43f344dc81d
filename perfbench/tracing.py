"""In-memory span recorder for the benchmark's traced runs, and the
timer every measured block goes through.

A span is (name, start_ns, end_ns, parent index, run id).  Spans are
kept in a list while the run lasts and written out once at exit.  The
untraced runs use ``NULL`` so the measured code path is the same in both
modes, minus the recording.
"""

import json
import time
from contextlib import contextmanager, nullcontext


def cpu_ticks() -> tuple[int, int]:
    """(busy, steal) clock ticks summed over the host's CPUs, from the
    first line of /proc/stat; (0, 0) where it cannot be read."""
    try:
        with open("/proc/stat") as f:
            user, nice, system, _idle, _iowait, irq, softirq, steal = map(
                int, f.readline().split()[1:9]
            )
        return user + nice + system + irq + softirq, steal
    except (OSError, ValueError):
        return 0, 0


# fewer ticks than this (0.2 CPU-seconds) and the stolen share is mostly
# tick rounding: the block keeps its plain wall time
MIN_TICKS = 20


@contextmanager
def timed(into: list):
    """Append (wall time net of steal, wall time) of the block to ``into``.

    The host is a VM shared with other guests, which take CPU from it in
    bursts (``steal``).  Steal accrues only on a CPU that wants to run,
    so the share of this host's runnable CPU time that was stolen during
    the block, steal / (busy + steal), is the share the block's critical
    path lost, and the net time is the wall time times the rest."""
    t0, (b0, s0) = time.perf_counter(), cpu_ticks()
    try:
        yield
    finally:
        wall = time.perf_counter() - t0
        b1, s1 = cpu_ticks()
        busy, steal = b1 - b0, s1 - s0
        ran = busy / (busy + steal) if busy + steal >= MIN_TICKS else 1.0
        into.append((wall * ran, wall))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        rec = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(e - s for n, s, e, _ in self.spans if n == name) / 1e9

    def self_s(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its child
        spans cover (children never overlap: one thread records)."""
        out: dict[str, float] = {}
        child_ns = [0] * len(self.spans)
        for n, s, e, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += e - s
        for i, (n, s, e, _) in enumerate(self.spans):
            out[n] = out.get(n, 0.0) + (e - s - child_ns[i]) / 1e9
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "spans": self.spans,
                    "self_s": self.self_s(),
                },
                f,
            )


class _NullTracer:
    def span(self, name: str):
        return nullcontext()


NULL = _NullTracer()
