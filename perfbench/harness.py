"""Workload-independent parts of the benchmark: spans, passes, statistics.

A workload runs in *passes*.  Every pass does the workload's whole job
once and returns a :class:`Pass`: its CPU time, one :class:`Op` per
operation (a reduction or a loop), and the workload's headline figures.
:func:`end_to_end` and :func:`per_layer` turn the passes of one run
into the contract's metrics.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

#: The clock of every timing: CPU seconds of this process.  On a shared
#: host the benchmark is descheduled for whole time slices while other
#: tenants run; wall time counts those slices, CPU time does not.
clock = time.process_time


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans and counts, recorded around calls into each layer.

    A span is ``[name, parent index, start, end, pass id]``; counts are
    numbers keyed by metric name.  Nothing is written until the run ends,
    when ``run.py`` writes the spans under ``perfbench/traces/``.
    """

    enabled = True

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, clock(), 0.0, self.pass_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = clock()
            self._stack.pop()

    def count(self, name: str, value=1) -> None:
        self.counts[name] += value

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, _, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals


class NullTracer:
    """The untraced path: spans cost one attribute lookup and a no-op."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL

    def count(self, name: str, value=1) -> None:
        pass


NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# Pass results
# ----------------------------------------------------------------------
#: ``Op.status`` values.  ``OK`` ops produced an output that passed
#: every check; ``FAILED`` ops raised a structured error or diverged
#: (Theorem 1); ``INVALID`` ops produced an output a check rejected.
OK = "ok"
FAILED = "failed"
INVALID = "invalid"


@dataclass
class Op:
    """One operation of a pass and its outcome."""

    label: str
    #: Seconds to the outcome; ``None`` when the op did not run.
    seconds: Optional[float]
    status: str = OK
    detail: str = ""
    #: Deterministic fingerprint of the output; passes must agree on it.
    output: Hashable = None


@dataclass
class Pass:
    """Everything one pass measured."""

    cpu_s: float
    ops: List[Op]
    #: Latency of each timed operation, keyed by a label that repeats
    #: from pass to pass (a reduction, or a loop on path (b)).
    latencies: Dict[str, float]
    #: Deterministic quality figures (``usage_ratio`` ...).
    quality: Dict[str, float]
    #: Seconds of one pass over the machine set, when the workload times
    #: it apart from its operations; otherwise the operations' sum.
    reduce_s: Optional[float] = None
    #: Operations per second on the main path, when not ``1 / reduce_s``.
    ops_per_s: Optional[float] = None
    #: Counts only the first pass measures, or printed in the report.
    extra: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    #: Host speed while the pass ran (see :class:`HostSpeed`).
    speed: float = 1.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds the calibration kernel takes on a quiet 2 GHz Xeon vCPU.
CALIBRATION_REF_S = 0.005


def calibration_kernel() -> int:
    """Fixed pure-Python work that shares no code with the program."""
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total


class HostSpeed:
    """Calibration-kernel samples taken between a pass's operations.

    The container's CPU speed drifts by up to 1.7x over minutes with the
    load of other tenants.  Timings are reported as measured CPU seconds
    times :meth:`speed`, i.e. in seconds of a quiet host.  The collector
    is off while the kernel runs, so the program's heap does not slow it.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        gc.disable()
        try:
            start = clock()
            calibration_kernel()
            self.samples.append(clock() - start)
        finally:
            gc.enable()

    def speed(self) -> float:
        """``CALIBRATION_REF_S`` over the kernel's median time."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def nearest_rank(values: List[float], percent: float) -> float:
    """The nearest-rank percentile (an element of ``values``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def differs(first: Pass, later: Pass) -> bool:
    """True when ``later`` changed an output of ``first``.  A later pass
    may leave out operations (the first pass alone runs some checks)."""
    reference = {op.label: (op.status, op.output) for op in first.ops}
    return any(reference.get(op.label) != (op.status, op.output) for op in later.ops)


def outcome_report(first: Pass, inconsistent: List[int]) -> Tuple[int, int, bool, List[str]]:
    """``(attempted, failed, correct, problems)`` for a run.

    Counts come from the first pass, so they do not depend on how many
    passes fit in the run; ``inconsistent`` lists the later passes whose
    outputs differed from it, which makes the run incorrect.
    """
    problems = [
        "%s: %s %s" % (op.label, op.status, op.detail)
        for op in first.ops
        if op.status != OK
    ]
    problems += ["pass %d: outputs differ from pass 0" % index for index in inconsistent]
    correct = not inconsistent and not any(op.status == INVALID for op in first.ops)
    failed = sum(1 for op in first.ops if op.status != OK)
    return len(first.ops), failed, correct, problems


def op_latencies(passes: List[Pass]) -> Dict[str, float]:
    """Each operation's median latency over the passes."""
    samples: Dict[str, List[float]] = {}
    for p in passes:
        for label, seconds in p.latencies.items():
            samples.setdefault(label, []).append(seconds * p.speed)
    return {label: statistics.median(values) for label, values in samples.items()}


def end_to_end(
    passes: List[Pass], setup_samples: List[float], attempted: int, failed: int
) -> Dict[str, float]:
    """The end-to-end metrics of untraced passes, plus ``op_ms_p99``.

    Timings are medians over passes: of each operation's latency (then
    the percentile over operations), and of the pass-level figures.
    """
    latencies = op_latencies(passes)
    if passes[0].reduce_s is None:
        reduce_s = sum(latencies.values())
        ops_per_s = len(latencies) / reduce_s
    else:
        reduce_s = statistics.median(p.reduce_s * p.speed for p in passes)
        ops_per_s = statistics.median(p.ops_per_s / p.speed for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "reduce_s": reduce_s,
        "op_ms_p50": nearest_rank(list(latencies.values()), 50) * 1e3,
        "op_ms_p99": nearest_rank(list(latencies.values()), 99) * 1e3,
        "ops_per_s": ops_per_s,
        "ok_frac": (attempted - failed) / attempted,
    }
    metrics.update(passes[0].quality)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


#: Span names and the per-layer time metric each one feeds.
LAYER_SPANS = {
    "mdl.loads": "mdl.loads_s",
    "forbidden.build": "forbidden.build_s",
    "algorithm1": "algorithm1.s",
    "prune": "prune.s",
    "select": "select.s",
    "verify": "verify.s",
    "certify.issue": "certify.issue_s",
    "certify.check": "certify.check_s",
    "mii": "mii.s",
    "ims": "ims.s",
    "ims.orig": "ims.orig_s",
    "corpus": "corpus.s",
}


def per_layer(
    first: Pass, untraced: List[Pass], traced: List[Pass], names: List[str]
) -> Dict[str, float]:
    """Per-layer metrics: median self times and counts over traced
    passes (counts repeat exactly), figures only the first pass
    measures, and the tracing overhead."""
    self_times = [
        {name: seconds * p.speed for name, seconds in p.tracer.self_times().items()}
        for p in traced
    ]
    metrics: Dict[str, float] = {}
    for span_name, metric in LAYER_SPANS.items():
        metrics[metric] = statistics.median(t.get(span_name, 0.0) for t in self_times)
    metrics["harness.s"] = statistics.median(
        sum(v for k, v in t.items() if k not in LAYER_SPANS and not k.startswith("replay."))
        for t in self_times
    )
    for name in names:
        if name.startswith("query.replay_s."):
            metrics[name] = statistics.median(
                t.get("replay." + name[len("query.replay_s."):], 0.0) for t in self_times
            )
    for name in names:
        if name in metrics:
            continue
        if name in first.extra:
            metrics[name] = first.extra[name]
        elif name.startswith("query.replay_ns_per_unit."):
            key = name[len("query.replay_ns_per_unit."):]
            units = statistics.median(p.tracer.counts["query.replay_units." + key] for p in traced)
            metrics[name] = ratio(metrics["query.replay_s." + key] * 1e9, units)
        else:
            metrics[name] = statistics.median(p.tracer.counts.get(name, 0) for p in traced)
    plain = statistics.median(p.cpu_s * p.speed for p in untraced)
    with_spans = statistics.median(p.cpu_s * p.speed for p in traced)
    metrics["trace.overhead_s"] = with_spans - plain
    metrics["trace.overhead_frac"] = ratio(with_spans - plain, plain)
    return metrics
