"""The ``schedule-corpus`` workload.

Set-up reduces ``cydra5-subset`` and draws ``loop_suite(1327, seed)``.
Each pass schedules the whole suite three ways and requires the three
``(II, placements, chosen alternatives)`` signatures to agree per loop:

* (a) one ``CorpusScheduler`` pass on the reduced description (the
  default batch path: shared compilation and column scans);
* (b) ``IterativeModuloScheduler`` per loop on the reduced description
  (default representation);
* (c) the same per-loop scheduler on the original description.

The first pass also runs the Theorem-1 slice: seeded ``clustered-vliw``
fuzz machines, a few ``generate_workload`` loops each, scheduled on the
original and on the reduced description.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core import reduce_machine
from repro.errors import BudgetExceeded, ScheduleError
from repro.fuzz.mdlgen import CLUSTERED, generate_machine, generate_workload
from repro.machines import cydra5_subset
from repro.mdl.format import dumps, loads
from repro.query import make_query_module
from repro.scheduler.corpus import CorpusScheduler, schedule_signature
from repro.scheduler.mii import min_ii
from repro.scheduler.modulo import IterativeModuloScheduler
from repro.workloads.loopgen import loop_suite

import checks
from harness import FAILED, INVALID, OK, Op, Pass, clock
from reduction import Job, run_jobs

SUITE_LOOPS = 1327
#: Reductions of cydra5-subset timed per pass; ``reduce_s`` is their median.
REDUCE_REPEATS = 10
SLICE_MACHINES = 200
SLICE_LOOPS = 3
#: The work-counter functions reported per layer; metric names spell
#: ``assign&free`` as ``assign_free``.
QUERY_FUNCTIONS = ("check", "check_range", "first_free", "assign", "assign&free", "free", "batch", "compile")
REPLAY_REPRESENTATIONS = ("discrete", "bitvector", "compiled", "batch")


@dataclass
class Inputs:
    suite: list
    job: Job
    original: object
    reduced: object
    slice_texts: List[str]
    #: Path (c)'s signatures from the first pass: the reference every
    #: later pass's paths (a) and (b) must reproduce.
    reference: Optional[list] = None


def setup(seed: int) -> Inputs:
    job = Job("cydra5-subset", dumps(cydra5_subset()))
    original = loads(job.text)
    reduced = reduce_machine(original).reduced
    slice_texts = [
        dumps(generate_machine(seed * 100003 + index, CLUSTERED))
        for index in range(SLICE_MACHINES)
    ]
    return Inputs(loop_suite(SUITE_LOOPS, seed), job, original, reduced, slice_texts)


def signature(result):
    return schedule_signature(result.ii, result.times, result.chosen_opcodes)


def _problem(machine, graph, sig) -> str:
    ii, times, chosen = sig
    return checks.modulo_schedule_problem(machine, graph, ii, dict(times), dict(chosen))


def reductions(inputs: Inputs, tracer, host):
    """Time ``REDUCE_REPEATS`` reductions of cydra5-subset under both
    objectives; the first one's ops count, the rest must match them."""
    samples = []
    first = None
    for _ in range(REDUCE_REPEATS):
        ops, totals = run_jobs([inputs.job], tracer, host, False, checks.STUDY_EXPECTED)
        samples.append(sum(op.seconds for op in ops if op.seconds is not None))
        if first is None:
            first = (ops, totals)
        elif [(o.status, o.output) for o in ops] != [(o.status, o.output) for o in first[0]]:
            first[0].append(Op("reduce/repeat", None, INVALID, "repeated reduction differs"))
    samples.sort()
    return first[0], first[1], samples[len(samples) // 2]


def reduced_paths(inputs: Inputs, tracer, host):
    """Paths (a) and (b); returns their results and timings.  ``host``
    samples the host's speed around path (a) and every 50 loops of (b)."""
    host.sample()
    start = clock()
    with tracer.span("corpus"):
        corpus = CorpusScheduler(inputs.reduced, processes=0).schedule_suite(inputs.suite)
    corpus_s = clock() - start
    host.sample()

    scheduler = IterativeModuloScheduler(inputs.reduced)
    per_loop, latencies = [], []
    for index, graph in enumerate(inputs.suite):
        if index % 50 == 49:
            host.sample()
        with tracer.span("loop"):
            if tracer.enabled:
                with tracer.span("mii"):
                    min_ii(inputs.reduced, graph, matrix=scheduler.matrix)
            start = clock()
            try:
                with tracer.span("ims"):
                    result = scheduler.schedule(graph)
            except (ScheduleError, BudgetExceeded) as error:
                result = error
            latencies.append(clock() - start)
        per_loop.append(result)
    return corpus, corpus_s, per_loop, latencies


def original_path(inputs: Inputs, tracer):
    """Path (c), run on the first pass and on traced passes."""
    scheduler = IterativeModuloScheduler(inputs.original)
    results = []
    with tracer.span("original"):
        for graph in inputs.suite:
            try:
                with tracer.span("ims.orig"):
                    results.append(scheduler.schedule(graph))
            except (ScheduleError, BudgetExceeded) as error:
                results.append(error)
    return results


def signature_of(result):
    return None if isinstance(result, Exception) else signature(result)


def suite_ops(inputs: Inputs, corpus, per_loop, on_original, validate: bool, sabotage: bool):
    """One op per loop per path.  A raised error fails the op; a path
    whose signature differs from (c)'s first-pass signature diverges;
    an invalid schedule makes the run incorrect."""
    ops: List[Op] = []
    sabotaged = not sabotage
    for index, graph in enumerate(inputs.suite):
        outcome = corpus.outcomes[index]
        signatures = {
            "a": None if outcome.failed else outcome.signature,
            "b": signature_of(per_loop[index]),
        }
        if on_original is not None:
            signatures["c"] = signature_of(on_original[index])
        if not sabotaged and signatures["a"] is not None:
            ii, times, chosen = signatures["a"]
            try:
                shifted = checks.shift_one_placement(graph, ii, dict(times))
            except ValueError:
                pass
            else:
                signatures["a"] = (ii, tuple(sorted(shifted.items())), chosen)
                sabotaged = True
        problems = {}
        if validate:
            for sig in set(s for s in signatures.values() if s is not None):
                problems[sig] = _problem(inputs.original, graph, sig)
        for path, sig in signatures.items():
            label = "%s/%d" % (path, index)
            if sig is None:
                ops.append(Op(label, None, FAILED, "schedule error", None))
            elif problems.get(sig):
                ops.append(Op(label, None, INVALID, problems[sig], sig))
            elif sig != inputs.reference[index]:
                ops.append(Op(label, None, FAILED, "differs from the original's schedule", sig))
            else:
                ops.append(Op(label, None, OK, "", sig))
    return ops


def theorem1_slice(inputs: Inputs):
    """Original vs reduced schedules of the slice's loops."""
    ops = []
    divergences = 0
    for text in inputs.slice_texts:
        original = loads(text)
        reduced = reduce_machine(original).reduced
        for index in range(SLICE_LOOPS):
            graph = generate_workload(original, index)
            label = "theorem1/%s/%d" % (original.name, index)
            try:
                first = signature(IterativeModuloScheduler(original).schedule(graph))
                second = signature(IterativeModuloScheduler(reduced).schedule(graph))
            except (ScheduleError, BudgetExceeded) as error:
                ops.append(Op(label, None, FAILED, type(error).__name__))
                continue
            problem = _problem(original, graph, first) or _problem(original, graph, second)
            if problem:
                ops.append(Op(label, None, INVALID, problem, (first, second)))
            elif first != second:
                divergences += 1
                ops.append(Op(label, None, FAILED, "II %d on original, %d on reduced" % (first[0], second[0]), (first, second)))
            else:
                ops.append(Op(label, None, OK, "", first))
    return ops, divergences


def replay(inputs: Inputs, per_loop, tracer) -> List[Op]:
    """Replay path (b)'s final placements (check, then assign) through
    every representation on both descriptions, one span and one unit
    count per representation and description."""
    ops = []
    schedules = [r for r in per_loop if not isinstance(r, Exception)]
    for representation in REPLAY_REPRESENTATIONS:
        for tag, machine in (("orig", inputs.original), ("red", inputs.reduced)):
            word_cycles = max(1, 64 // machine.num_resources)
            key = "%s.%s" % (representation, tag)
            units = conflicts = 0
            with tracer.span("replay." + key):
                for result in schedules:
                    module = make_query_module(machine, representation, word_cycles, modulo=result.ii)
                    for name, cycle in sorted(result.times.items(), key=lambda item: (item[1], item[0])):
                        opcode = result.chosen_opcodes[name]
                        if not module.check(opcode, cycle):
                            conflicts += 1
                        module.assign(opcode, cycle)
                    units += module.work.total_units
            tracer.count("query.replay_units." + key, units)
            if conflicts:
                ops.append(Op("replay/" + key, None, INVALID, "%d replayed placements conflict" % conflicts))
    return ops


def count_layers(tracer, corpus, per_loop, on_original) -> None:
    done = [r for r in per_loop if not isinstance(r, Exception)]
    tracer.count("mii.loops_at_mii", sum(1 for r in done if r.ii == r.mii))
    tracer.count("ims.attempts", sum(len(r.attempts) for r in done))
    tracer.count("ims.first_try_frac", sum(1 for r in done if len(r.attempts) == 1) / len(per_loop))
    tracer.count("ims.ii_sum", sum(r.ii for r in done))
    for function in QUERY_FUNCTIONS:
        name = function.replace("&", "_")
        tracer.count("query.%s.calls" % name, sum(r.work.calls[function] for r in done))
        tracer.count("query.%s.units" % name, sum(r.work.units[function] for r in done))
        tracer.count("corpus.%s.calls" % name, corpus.work.calls[function])
        tracer.count("corpus.%s.units" % name, corpus.work.units[function])
    original = [r for r in on_original if not isinstance(r, Exception)]
    tracer.count("query.orig.calls", sum(r.work.total_calls for r in original))
    tracer.count("query.orig.units", sum(r.work.total_units for r in original))



class ScheduleCorpus:
    def setup(self, seed: int) -> Inputs:
        return setup(seed)

    def run_pass(self, inputs: Inputs, tracer, host, first: bool, sabotage: bool) -> Pass:
        start = clock()
        with tracer.span("pass"):
            ops, totals, reduce_s = reductions(inputs, tracer, host)
            corpus, corpus_s, per_loop, latencies = reduced_paths(inputs, tracer, host)
        cpu_s = clock() - start
        on_original = original_path(inputs, tracer) if first or tracer.enabled else None
        if first:
            inputs.reference = [signature_of(result) for result in on_original]
        ops += suite_ops(inputs, corpus, per_loop, on_original, first, sabotage)
        extra = {}
        if first:
            slice_ops, extra["theorem1.divergences"] = theorem1_slice(inputs)
            ops += slice_ops
        if tracer.enabled:
            count_layers(tracer, corpus, per_loop, on_original)
            ops += replay(inputs, per_loop, tracer)
        done = [r for r in per_loop if not isinstance(r, Exception)]
        return Pass(
            cpu_s=cpu_s,
            ops=ops,
            latencies={"b/%d" % index: seconds for index, seconds in enumerate(latencies)},
            quality=totals.quality(),
            reduce_s=reduce_s,
            ops_per_s=len(inputs.suite) / corpus_s,
            extra=dict(extra, ii_sum=sum(r.ii for r in done)),
            tracer=tracer if tracer.enabled else None,
        )
