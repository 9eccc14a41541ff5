"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reduce-study --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  The
exit code is 0 when every output check passed, 1 when one failed, and 2
when the program cannot be imported.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("reduce-study", "reduce-deep", "schedule-corpus")
#: The default seed; 7919 is held out for claims (see README.md).
DEFAULT_SEED = 0
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "reduce_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "usage_ratio": "ratio",
    "word_ratio": "ratio",
    "resource_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics in report order, with units.
PER_LAYER = {
    "cli.import_s": "s",
    "mdl.loads_s": "s",
    "forbidden.build_s": "s",
    "forbidden.instances": "count",
    "algorithm1.s": "s",
    "algorithm1.pairs": "count",
    "algorithm1.resources": "count",
    "prune.s": "s",
    "prune.kept": "count",
    "select.s": "s",
    "select.usages": "count",
    "verify.s": "s",
    "certify.issue_s": "s",
    "certify.check_s": "s",
    "budget.units": "count",
    "mii.s": "s",
    "mii.loops_at_mii": "count",
    "ims.s": "s",
    "ims.orig_s": "s",
    "ims.attempts": "count",
    "ims.first_try_frac": "ratio",
    "ims.ii_sum": "cycles",
    "corpus.s": "s",
}
for _path in ("query", "corpus"):
    for _fn in ("check", "check_range", "first_free", "assign", "assign_free", "free", "batch", "compile"):
        PER_LAYER["%s.%s.calls" % (_path, _fn)] = "count"
        PER_LAYER["%s.%s.units" % (_path, _fn)] = "count"
PER_LAYER["query.orig.calls"] = "count"
PER_LAYER["query.orig.units"] = "count"
for _kind, _unit in (("replay_s", "s"), ("replay_units", "count"), ("replay_ns_per_unit", "ns")):
    for _repr in ("discrete", "bitvector", "compiled", "batch"):
        for _tag in ("orig", "red"):
            PER_LAYER["query.%s.%s.%s" % (_kind, _repr, _tag)] = _unit
PER_LAYER.update({
    "theorem1.divergences": "count",
    "harness.s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sabotage", action="store_true",
                        help="feed the output checks a deliberately broken output")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class ProgramMissing(Exception):
    """The checkout has no importable program under ``src/``."""


def import_program() -> float:
    """Import ``repro.cli`` from this checkout's ``src/``; returns seconds."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing("no program sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    start = time.process_time()
    import repro.cli  # noqa: F401

    seconds = time.process_time() - start
    if SRC not in Path(repro.cli.__file__).resolve().parents:
        raise ProgramMissing("repro was imported from %s" % repro.cli.__file__)
    return seconds


def load_workload(name: str):
    from reduction import ReduceDeep, ReduceStudy
    from scheduling import ScheduleCorpus

    return {"reduce-study": ReduceStudy, "reduce-deep": ReduceDeep,
            "schedule-corpus": ScheduleCorpus}[name]()


def measure_setup(args) -> float:
    """CPU seconds (user and system) from starting a fresh interpreter to
    the workload being ready to run."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def run_passes(workload, inputs, args, setup_samples):
    """A first pass that every check runs on, then timed passes until the
    next one would overrun ``--seconds``.  The traced run alternates
    untraced and traced timed passes.  Set-up samples are taken between
    timed passes and scaled by the host speed of the pass before them.
    Returns ``(first, timed, inconsistent)``; later passes keep only
    their timings."""
    from harness import NULL_TRACER, HostSpeed, Tracer, differs

    started = time.perf_counter()
    first = workload.run_pass(inputs, NULL_TRACER, HostSpeed(), True, args.sabotage)
    timed, costs, inconsistent = [], [], []
    needed = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(timed) % 2 == 1
        tracer = Tracer(len(timed) + 1) if traced else NULL_TRACER
        host = HostSpeed()
        start = time.perf_counter()
        later = workload.run_pass(inputs, tracer, host, False, args.sabotage)
        costs.append(time.perf_counter() - start)
        later.speed = host.speed()
        if differs(first, later):
            inconsistent.append(len(timed) + 1)
        later.ops = []
        timed.append(later)
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(measure_setup(args) * later.speed)
        elapsed = time.perf_counter() - started
        if len(timed) >= needed and elapsed + statistics.median(costs) > args.seconds:
            break
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(measure_setup(args) * timed[-1].speed)
    return first, timed, inconsistent


def named_figures(workload: str, metrics: dict, first, attempted: int, failed: int) -> dict:
    """The end-to-end figures under their workload-specific names
    (``reduce_ms_p50``, ``loops_per_s``, ``fail_frac`` ...)."""
    named = {"setup_s": (metrics["setup_s"], "s")}
    if workload == "schedule-corpus":
        named["loops_per_s"] = (metrics["ops_per_s"], "loops/s")
        named["loop_ms_p50"] = (metrics["op_ms_p50"], "ms")
        named["loop_ms_p99"] = (metrics["op_ms_p99"], "ms")
        named["ii_sum"] = (first.extra["ii_sum"], "cycles")
        named["reduce_s"] = (metrics["reduce_s"], "s")
    else:
        named["reduce_s"] = (metrics["reduce_s"], "s")
        named["reduce_ms_p50"] = (metrics["op_ms_p50"], "ms")
    named["fail_frac"] = (failed / attempted, "ratio")
    for key in ("usage_ratio", "word_ratio", "resource_ratio"):
        named[key] = (metrics[key], "ratio")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    return named


def write_trace(path: Path, args, passes) -> None:
    spans = [span for p in passes if p.tracer is not None for span in p.tracer.spans]
    origin = min((span[2] for span in spans), default=0.0)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "fields": ["name", "parent", "start_s", "end_s", "pass"],
        "spans": [[name, parent, start - origin, end - origin, pass_id]
                  for name, parent, start, end, pass_id in spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document))


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.sabotage:
            command.append("--sabotage")
        print("== %s" % name, flush=True)
        status = max(status, subprocess.run(command, timeout=900).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_s = import_program()
    except ProgramMissing as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    workload = load_workload(args.workload)
    if args.setup_probe:
        workload.setup(args.seed)
        return 0

    import harness

    setup_samples = []
    inputs = workload.setup(args.seed)
    first, passes, inconsistent = run_passes(workload, inputs, args, setup_samples)
    untraced = [p for p in passes if p.tracer is None]
    traced = [p for p in passes if p.tracer is not None]
    attempted, failed, correct, problems = harness.outcome_report(first, inconsistent)
    e2e = harness.end_to_end(untraced, setup_samples, attempted, failed)

    print("%s seed=%d timed passes=%d (traced %d) attempted=%d failed=%d"
          % (args.workload, args.seed, len(passes), len(traced), attempted, failed))
    print("  host speed x%.3f: times are quiet-host seconds (measured CPU seconds x speed)"
          % statistics.median(p.speed for p in passes))
    for problem in problems[:20]:
        print("  %s" % problem)
    if len(problems) > 20:
        print("  ... %d more" % (len(problems) - 20))
    for name, (value, unit) in named_figures(args.workload, e2e, first, attempted, failed).items():
        print("  %-22s %14.6g %s" % (name, value, unit))

    if args.trace:
        for p in traced:
            p.tracer.count("cli.import_s", import_s)
        values = harness.per_layer(first, untraced, traced, list(PER_LAYER))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        print("per-layer (self times, median of %d traced passes):" % len(traced))
        for name, unit in PER_LAYER.items():
            print("  %-36s %14.6g %s" % (name, values[name], unit))
        out = HERE / "traces" / ("%s-%d.json" % (args.workload, args.seed))
        write_trace(out, args, passes)
        print("spans written to %s" % out)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
