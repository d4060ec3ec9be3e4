"""Measurement machinery shared by the workloads: spans, rounds, results.

A workload run is a closed loop with one client: rounds of the same
operations on the same inputs, back to back, until the run length is used
up.  Each operation's output is checked after its round, outside the timed
window.

Tracing records spans from the benchmark's own code, around calls into the
package's public functions; nothing inside ``src/`` is patched.  Where a
public function calls another one internally, a traced round calls the inner
function a second time on the same input and links that *replay* span to the
outer one with ``part_of``.  The outer span's self time then excludes the
replayed part, so layer times are estimated without instrumenting the
program.  Replays and other extra probes are work that untraced rounds do not
do; the tracing overhead is measured after removing them.

Timings are scaled to a reference machine pace (see ``CAL_REF_S``), because
the shared host's speed drifts by up to 2x within seconds.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
OUT = PERFBENCH / "out"

perf_counter = time.perf_counter


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "round", "part_of",
                 "extra", "counts")

    def __init__(self, sid, name, parent, op, rnd, part_of, extra):
        self.id = sid
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.op = op
        self.round = rnd
        self.part_of = part_of
        self.extra = extra
        self.counts: dict[str, float] = {}

    def count(self, **counts: float) -> None:
        for k, v in counts.items():
            self.counts[k] = self.counts.get(k, 0) + v

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "round": self.round,
            "part_of": self.part_of, "extra": self.extra, "counts": self.counts,
        }


class _NullSpan:
    def count(self, **counts: float) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    on = False
    round = None
    op = None

    def span(self, name, part_of=None, extra=False):
        return _NULL_SPAN


class _SpanContext:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.span)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Keeps spans in memory; ``write`` dumps them as JSON lines at the end."""

    on = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.round: int | None = None
        self.op: str | None = None

    def span(self, name: str, part_of: Span | None = None, extra: bool = False):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.op, self.round,
                  None if part_of is None else part_of.id,
                  extra or part_of is not None)
        self.spans.append(sp)
        return _SpanContext(self, sp)

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere: perf_counter is system-wide on Linux,
        so a child process can report its own start and end."""
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.op, self.round, None, False)
        sp.start, sp.end = start, end
        self.spans.append(sp)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus nested children and minus replays of internal parts."""
    sub: dict[int, float] = defaultdict(float)
    for sp in spans:
        d = sp.end - sp.start
        if sp.parent is not None:
            sub[sp.parent] += d
        if sp.part_of is not None and sp.part_of != sp.parent:
            sub[sp.part_of] += d
    return {sp.id: (sp.end - sp.start) - sub[sp.id] for sp in spans}


def extra_time(spans: list[Span]) -> float:
    """Wall time of replays and probes that are not nested in another one."""
    by_id = {sp.id: sp for sp in spans}
    total = 0.0
    for sp in spans:
        if not sp.extra:
            continue
        p = sp.parent
        while p is not None and not by_id[p].extra:
            p = by_id[p].parent
        if p is None:
            total += sp.end - sp.start
    return total


# Per-layer metrics.  Times are seconds of self time per traced round; counts
# are per traced round; each is the median over the traced rounds of a run.
# A layer a workload never calls reads 0.
LAYER_SELF = {
    "instances.load_s": ("instances.load_instance",),
    "single_agent.agentspec_s": ("single_agent.AgentSpec",),
    "single_agent.beta_curve_s": ("single_agent.build_beta_curve", "single_agent.beta_at"),
    "single_agent.solve_self_s": ("single_agent.solve_single",),
    "single_agent.sweep_s": ("single_agent.sweep_parameter",),
    "envelope.build_s": ("envelope.build_envelope",),
    "multi_agent.utility_curve_s": ("multi_agent.build_utility_curve",),
    "multi_agent.allocate_self_s": ("multi_agent.allocate",),
    "scheduler.build_s": ("scheduler.build_schedule",),
    "scheduler.marginals_s": ("scheduler.exact_marginals",),
    "oracle.single_s": ("oracle.brute_force_single",),
    "oracle.allocate_s": ("oracle.brute_force_allocate",),
    "oracle.ic_ir_s": ("oracle.check_ic_ir",),
}
# whole durations, not self times: a probe process or one in-process cli.main
LAYER_DURATION = {
    "cli.python_startup_s": "cli.python_startup",
    "cli.import_s": "cli.import",
    "cli.main_s.solve": "cli.main.solve",
    "cli.main_s.allocate": "cli.main.allocate",
    "cli.main_s.schedule": "cli.main.schedule",
    "cli.main_s.verify": "cli.main.verify",
}
LAYER_COUNTS = {
    "single_agent.beta_pieces": "beta_pieces",
    "envelope.hull_actions": "hull_actions",
    "multi_agent.dp_cells": "dp_cells",
    "oracle.grid_evals": "grid_evals",
}


END_TO_END_UNITS = {"round_s": "s", "call_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s") or ".main_s." in name:
        return "s"
    return "count"


PER_LAYER = [
    *LAYER_SELF, *LAYER_DURATION, *LAYER_COUNTS,
    "instances.actions_per_s", "multi_agent.cells_per_s", "scheduler.draw_us",
    "trace.overhead_pct",
]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics for one traced round."""
    selfs = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    dur_by_name: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, float] = defaultdict(float)
    for sp in spans:
        by_name[sp.name] += selfs[sp.id]
        dur_by_name[sp.name].append(sp.end - sp.start)
        for k, v in sp.counts.items():
            counts[k] += v
    out: dict[str, float] = {}
    for metric, names in LAYER_SELF.items():
        out[metric] = sum(by_name[n] for n in names)
    for metric, name in LAYER_DURATION.items():
        durs = dur_by_name[name]
        out[metric] = sum(durs) / len(durs) if durs else 0.0
    for metric, key in LAYER_COUNTS.items():
        out[metric] = counts[key]
    load = out["instances.load_s"]
    out["instances.actions_per_s"] = counts["actions_loaded"] / load if load > 0 else 0.0
    dp = out["multi_agent.allocate_self_s"]
    out["multi_agent.cells_per_s"] = counts["dp_cells"] / dp if dp > 0 else 0.0
    draws = counts["draws"]
    out["scheduler.draw_us"] = (
        1e6 * sum(dur_by_name["scheduler.sample_assignment"]) / draws if draws else 0.0
    )
    return out


# ---------------------------------------------------------------------------
# machine pace
# ---------------------------------------------------------------------------

# The host is shared: its speed drifts by up to 2x within seconds, the same
# for every process on it.  Rounds are therefore cut into segments of at most
# about a second, each bracketed by a fixed calibration task, and a
# segment's time is scaled by CAL_REF_S / (the task's duration at its two
# ends): timings are reported as seconds at a fixed reference pace.
# CAL_REF_S is about the task's duration on the reference host (2 shared
# Xeon vCPUs, Python 3.11) at its usual speed; any constant would do, since
# it only sets the units in which runs are compared.  Calibration time is
# never counted as work.
CAL_REF_S = 4e-3
CAL_REPEATS = 3


def _calibration_task() -> float:
    """Fixed interpreter and small-array work, like the program's own mix."""
    acc = 0.0
    for i in range(15000):
        acc += math.sqrt(i) * 0.5
    pairs = sorted((i * 7919 % 1000, float(i)) for i in range(3000))
    table: dict[int, float] = {}
    for k, v in pairs:
        table[k] = table.get(k, 0.0) + v
    a = np.arange(64.0)
    for _ in range(300):
        a = np.maximum(a[::-1] + 1.0, a)
    return acc + float(a[0])


def machine_pace() -> float:
    """Median duration of a few calibration tasks, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CAL_REPEATS):
            t0 = perf_counter()
            _calibration_task()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


# ---------------------------------------------------------------------------
# operations, rounds and results
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    """An output contradicts a property the method must have."""


@dataclass
class Op:
    """One operation of a round: its output, or the exception it raised.

    ``fault`` names a known fault in the program that this operation runs
    into; such an operation counts as failed instead of making the run
    incorrect.  ``count`` is how many operations the entry stands for (one
    per draw when a batch of draws is checked as a whole).
    """

    kind: str
    key: object
    output: object = None
    error: BaseException | None = None
    fault: str | None = None
    count: int = 1


@dataclass
class RoundLog:
    ops: list[Op] = field(default_factory=list)
    # work time, calibration excluded, and its mean scale to reference pace
    wall: float = 0.0
    scale: float = 1.0
    # seconds per labelled call kind, and how many calls, for detail metrics
    times: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    # wall time of each of the workload's unit calls, for call_ms
    unit_calls: list[float] = field(default_factory=list)
    # (start, end, pace, unit calls so far) at each segment boundary
    marks: list[tuple] = field(default_factory=list)

    def timed(self, label: str, seconds: float, calls: int = 1) -> None:
        self.times[label] += seconds
        self.calls[label] += calls

    def paced(self, label: str) -> float:
        """Seconds spent in ``label`` calls this round, at reference pace."""
        return self.times[label] * self.scale

    def mark(self) -> None:
        """End a segment: sample the machine's pace (not counted as work)."""
        t0 = perf_counter()
        pace = machine_pace()
        self.marks.append((t0, perf_counter(), pace, len(self.unit_calls)))

    def settle(self) -> list[float]:
        """Wall time and mean scale from the marks; unit calls at reference pace."""
        wall = paced_wall = 0.0
        calls: list[float] = []
        for (_, a_end, a_pace, a_n), (b_start, _, b_pace, b_n) in zip(self.marks,
                                                                      self.marks[1:]):
            scale = CAL_REF_S / (0.5 * (a_pace + b_pace))
            wall += b_start - a_end
            paced_wall += (b_start - a_end) * scale
            calls.extend(t * scale for t in self.unit_calls[a_n:b_n])
        self.wall, self.scale = wall, paced_wall / wall
        return calls


def median(xs):
    return statistics.median(xs) if xs else 0.0


def to_reference_pace(metrics: dict[str, float], scale: float) -> dict[str, float]:
    """Scale the times and rates of one round's layer metrics."""
    out = {}
    for name, v in metrics.items():
        unit = layer_unit(name)
        out[name] = v * scale if unit in ("s", "us") else v / scale if unit == "1/s" else v
    return out


def environment(seed: int, workload: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        commit_hash = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit_hash = None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit_hash,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def finite(x: float) -> float:
    if not math.isfinite(x):
        raise CheckFailed(f"non-finite metric value {x!r}")
    return x
