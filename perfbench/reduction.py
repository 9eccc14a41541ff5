"""The ``reduce-study`` and ``reduce-deep`` workloads.

One operation reduces one machine description under one objective,
starting from its MDL text: parse, Step 1 (forbidden-latency matrix),
Algorithm 1 (generating set), covered-resource pruning, selection,
materialization, verification against the original's matrix, and a
certificate that is issued and checked in full mode.  The steps are
called one by one so that the traced run can put a span around each.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import machines
from repro.core import (
    ForbiddenLatencyMatrix,
    MachineDescription,
    Reduction,
    build_generating_set,
    check_certificate,
    issue_certificate,
    machine_from_selection,
    prune_covered_resources,
    select_resources,
)
from repro.core.elementary import elementary_pairs
from repro.core.selection import RES_USES, WORD_USES
from repro.errors import BudgetExceeded, CertificateError, EquivalenceError
from repro.fuzz.mdlgen import DEEP, generate_machine
from repro.mdl.format import dumps, loads
from repro.resilience.budget import Budget

import checks
from harness import FAILED, INVALID, OK, NULL_TRACER, Op, Pass, clock, ratio

#: Bits per memory word for the ``word-uses`` objective; ``k`` is picked
#: the way :func:`repro.core.reduce.reduce_for_word_size` picks it.
WORD_BITS = 64
WORD_ROUNDS = 4

STUDY_MACHINES = {
    "cydra5": machines.cydra5,
    "cydra5-subset": machines.cydra5_subset,
    "alpha21064": machines.alpha21064,
    "mips-r3000": machines.mips_r3000,
    "playdoh": machines.playdoh,
    "buffered-pu": machines.buffered_pu,
    "clustered-vliw": machines.clustered_vliw,
    "example": machines.example_machine,
}

#: reduce-deep reduces the fuzz ``deep`` profile's machines 0-23, in an
#: order drawn from the seed.  The set is fixed because a per-seed draw
#: of that heavy-tailed profile is not steady: over 96-machine draws the
#: median reduction latency still moved by 20-40% (quartile spread)
#: from seed to seed.  24 machines keep a pass near 5 s, so a run has
#: enough passes for steady per-reduction medians.
DEEP_MACHINES = 24
#: Work-unit cap of one reduce-deep operation (``Budget(max_units=...)``):
#: the machines that exhaust it fail the same way on every run.
DEEP_MAX_UNITS = 150_000


@dataclass
class Job:
    """One machine to reduce under both objectives."""

    name: str
    text: str
    max_units: Optional[int] = None


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def study_jobs(seed: int) -> List[Job]:
    jobs = [Job(name, dumps(factory())) for name, factory in STUDY_MACHINES.items()]
    random.Random("reduce-study:%d" % seed).shuffle(jobs)
    return jobs


def deep_jobs(seed: int) -> List[Job]:
    jobs = [
        Job("deep-%d" % index, dumps(generate_machine(index, DEEP)), DEEP_MAX_UNITS)
        for index in range(DEEP_MACHINES)
    ]
    random.Random("reduce-deep:%d" % seed).shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# One reduction
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    original: MachineDescription
    reduced: MachineDescription
    word_cycles: int


def reduce_text(
    text: str,
    objective: str,
    word_cycles: int,
    tracer=NULL_TRACER,
    budget: Optional[Budget] = None,
    sabotage: bool = False,
) -> Outcome:
    """Parse and reduce one description; raises the program's structured
    errors (:class:`BudgetExceeded`, :class:`EquivalenceError`,
    :class:`CertificateError`)."""
    with tracer.span("reduce"):
        with tracer.span("mdl.loads"):
            original = loads(text)
        with tracer.span("forbidden.build"):
            matrix = ForbiddenLatencyMatrix.from_machine(original, budget=budget)
        if tracer.enabled:
            tracer.count("forbidden.instances", matrix.instance_count)
            tracer.count("algorithm1.pairs", len(elementary_pairs(matrix)))
        with tracer.span("algorithm1"):
            generating = build_generating_set(matrix, budget=budget)
        with tracer.span("prune"):
            pruned = prune_covered_resources(generating)
        with tracer.span("select"):
            selection = select_resources(
                matrix, pruned, objective=objective, word_cycles=word_cycles,
                budget=budget,
            )
            reduced = machine_from_selection(original, selection)
        if sabotage:
            reduced = checks.drop_one_usage(reduced)
        with tracer.span("verify"):
            reduced_matrix = ForbiddenLatencyMatrix.from_machine(reduced, budget=budget)
            mismatches = matrix.differences(reduced_matrix)
        if mismatches:
            raise EquivalenceError(
                "reduction of %r is not exact (%d mismatching pairs)"
                % (original.name, len(mismatches)),
                mismatches,
            )
        reduction = Reduction(original, reduced, matrix, generating, pruned, selection)
        with tracer.span("certify.issue"):
            certificate = issue_certificate(reduction)
        with tracer.span("certify.check"):
            check_certificate(
                certificate, original, reduced, recompute_matrix=True, budget=budget
            )
    if tracer.enabled:
        tracer.count("algorithm1.resources", len(generating))
        tracer.count("prune.kept", len(pruned))
        tracer.count("select.usages", selection.total_usages)
    return Outcome(original, reduced, word_cycles)


def reduce_for_word(text, resources, tracer, budget, sabotage) -> Outcome:
    """The ``word-uses`` reduction with ``k`` found by fixed point, the
    way ``reduce_for_word_size`` finds it, starting from the resource
    count of the ``res-uses`` reduction."""
    k = max(1, WORD_BITS // max(1, resources))
    for _ in range(WORD_ROUNDS):
        outcome = reduce_text(text, WORD_USES, k, tracer, budget, sabotage)
        next_k = max(1, WORD_BITS // max(1, outcome.reduced.num_resources))
        if next_k == k:
            break
        k = next_k
    return outcome


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
class Totals:
    """Original and reduced sums behind the deterministic quality ratios."""

    def __init__(self):
        self.sums = {"usage_ratio": [0, 0], "word_ratio": [0, 0], "resource_ratio": [0, 0]}

    def _add(self, key: str, original: int, reduced: int) -> None:
        self.sums[key][0] += original
        self.sums[key][1] += reduced

    def record(self, objective: str, outcome: Outcome) -> None:
        original, reduced = outcome.original, outcome.reduced
        self._add("resource_ratio", original.num_resources, reduced.num_resources)
        if objective == RES_USES:
            self._add("usage_ratio", original.total_usages, reduced.total_usages)
        else:
            k = outcome.word_cycles
            self._add("word_ratio", checks.word_usages(original, k), checks.word_usages(reduced, k))

    def quality(self) -> Dict[str, float]:
        return {key: ratio(reduced, original) for key, (original, reduced) in self.sums.items()}


def run_jobs(jobs: List[Job], tracer, host, sabotage: bool, expected=None):
    """Reduce every job under both objectives; returns ``(ops, totals)``.

    A ``word-uses`` reduction needs the ``res-uses`` resource count, so it
    fails unmeasured when the ``res-uses`` reduction failed.  ``host``
    samples the host's speed after every reduction.  ``sabotage`` drops
    one usage from the first reduced description before it is verified,
    to show that the checks catch it.
    """
    ops: List[Op] = []
    totals = Totals()
    for job in jobs:
        resources = None
        for objective in (RES_USES, WORD_USES):
            host.sample()
            label = "%s/%s" % (job.name, objective)
            if objective == WORD_USES and resources is None:
                ops.append(Op(label, None, FAILED, "res-uses reduction failed"))
                continue
            budget = Budget(max_units=job.max_units) if job.max_units else None
            broken = sabotage and not ops
            # A full collection first, so that each reduction pays only for
            # its own garbage whatever order the seed put the jobs in.
            gc.collect()
            start = clock()
            try:
                if objective == RES_USES:
                    outcome = reduce_text(job.text, RES_USES, 1, tracer, budget, broken)
                else:
                    outcome = reduce_for_word(job.text, resources, tracer, budget, broken)
            except BudgetExceeded as error:
                ops.append(_failed(label, start, FAILED, "BudgetExceeded in %s" % error.phase))
                continue
            except (EquivalenceError, CertificateError) as error:
                ops.append(_failed(label, start, INVALID, "%s: %s" % (type(error).__name__, error)))
                continue
            finally:
                if budget is not None and tracer.enabled:
                    tracer.count("budget.units", budget.units)
            seconds = clock() - start
            if objective == RES_USES:
                resources = outcome.reduced.num_resources
            shape = (
                outcome.original.num_resources, outcome.original.total_usages,
                outcome.reduced.num_resources, outcome.reduced.total_usages,
                outcome.word_cycles,
            )
            status, detail = OK, ""
            if expected is not None and expected.get((job.name, objective)) != shape:
                status = INVALID
                detail = "shape %s, expected %s" % (shape, expected.get((job.name, objective)))
            else:
                totals.record(objective, outcome)
            ops.append(Op(label, seconds, status, detail, shape))
    return ops, totals


def _failed(label: str, start: float, status: str, detail: str) -> Op:
    return Op(label, clock() - start, status, detail)


def reduce_pass(jobs: List[Job], tracer, host, sabotage: bool, expected=None) -> Pass:
    start = clock()
    with tracer.span("pass"):
        ops, totals = run_jobs(jobs, tracer, host, sabotage, expected)
    return Pass(
        cpu_s=clock() - start,
        ops=ops,
        latencies={op.label: op.seconds for op in ops if op.seconds is not None},
        quality=totals.quality(),
        tracer=tracer if tracer.enabled else None,
    )


class ReduceStudy:
    def setup(self, seed: int) -> List[Job]:
        return study_jobs(seed)

    def run_pass(self, jobs, tracer, host, first: bool, sabotage: bool) -> Pass:
        return reduce_pass(jobs, tracer, host, sabotage, checks.STUDY_EXPECTED)


class ReduceDeep:
    def setup(self, seed: int) -> List[Job]:
        return deep_jobs(seed)

    def run_pass(self, jobs, tracer, host, first: bool, sabotage: bool) -> Pass:
        return reduce_pass(jobs, tracer, host, sabotage)
