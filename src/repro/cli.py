"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands
--------
``reduce``    reduce a machine description and optionally write it out
``verify``    check that two descriptions preserve the same constraints
``certify``   issue or independently check a preservation certificate
``stats``     print the Tables 1-4 metrics for a description
``show``      dump a (built-in) machine as MDL text
``schedule``  modulo-schedule the named kernels or a generated loop suite
``explain``   scheduling provenance: MII attribution, per-II failure
              blame, decision-ledger rollups (text/JSON/HTML)
``report``    human-readable machine / reduction report
``diff``      scheduling-constraint diff between two descriptions
``expand``    modulo-schedule a kernel and print its software pipeline
``automata``  build the contention-recognizing automata and report sizes
``lint``      static-analysis audit: machine descriptions, or with
              ``--code`` the repro sources themselves
``profile``   reduce + schedule under tracing; per-phase time/work report
``chaos``     deterministic fault injection against the resilience layer
``fuzz``      seeded fuzz campaign: generated machines through the
              differential pipeline oracle (plus composed chaos plans)
``bench``     benchmark observatory: ``run`` / ``compare`` / ``report``
``runs``      run registry: ``list`` / ``show`` / ``diff`` / ``trend`` /
              ``gc`` / ``metrics`` (OpenMetrics export)

Each command's help, shared flags (``--deadline``/``--max-units``
budgets that exit 3, ``--fallback``, ``--metrics``/``--trace``,
``--runlog DIR`` registry records) and per-command defaults are declared
once, in the :data:`COMMANDS` table at the bottom of this module;
:func:`main` is the one runner that acts on them.  The ``docs/`` pages
describe each subsystem: certificates, benchmarking, robustness,
observability, explain, fuzzing and runs.

Machines are referenced either by a built-in name (``cydra5``,
``cydra5-subset``, ``alpha21064``, ``mips-r3000``, ``playdoh``,
``example``, ``buffered-pu``, ``clustered-vliw``) or by the path of an
MDL file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core import reduce_machine
from repro.errors import BudgetExceeded, ReproError

# ``import repro`` already loads ``repro.core``; every other import is
# local to the handler (or argument adder) that needs it, so a command
# loads only the subsystems it runs.


def _builtins() -> Dict[str, Callable]:
    from repro.machines import (
        CORPUS_MACHINES,
        STUDY_MACHINES,
        example_machine,
        playdoh,
    )

    builtins = dict(STUDY_MACHINES)
    builtins["example"] = example_machine
    builtins["playdoh"] = playdoh
    builtins.update(CORPUS_MACHINES)
    return builtins


def _load_machine(ref: str, raw: bool = False):
    """The built-in machine named ``ref``, else the MDL file at ``ref``.

    With ``raw``, a file comes back as its unvalidated parse
    (``mdl.RawMachine``) so the linter can attach real source lines and
    can still audit files that fail semantic validation.
    """
    from repro import mdl

    builtins = _builtins()
    if ref in builtins:
        return builtins[ref]()
    if os.sep in ref or ref.endswith(".mdl") or os.path.exists(ref):
        try:
            return mdl.parse_file(ref) if raw else mdl.load_file(ref)
        except (OSError, UnicodeDecodeError) as exc:
            raise ReproError(
                "cannot read machine file %r: %s" % (ref, exc)
            ) from exc
    raise ReproError(
        "unknown machine %r: not a built-in machine and not an existing"
        " MDL file (built-ins: %s)" % (ref, ", ".join(sorted(builtins)))
    )


def _suite(args: argparse.Namespace):
    """``(workload label, graphs)`` named by ``--kernel``/``--loops``."""
    from repro.workloads import KERNELS, loop_suite

    if args.kernel:
        return args.kernel, [KERNELS[args.kernel]()]
    return "suite[%d]" % args.loops, loop_suite(args.loops)


class Run:
    """One invocation as its handler sees it.

    The runner builds it before the handler starts: it opens the
    registry recorder and builds the ``--fallback`` policy once.  The
    handler takes its budgets and policy from it and reports what the run
    registry records (machine, workload, units, quality) through it.
    Every report is a no-op for the registry when ``--runlog`` is off;
    noted fields also fill the trace ``meta`` of the commands that
    declare one.
    """

    def __init__(self, args: argparse.Namespace, command: str, record: bool):
        self.args = args
        self.command = command
        self.fields: Dict[str, object] = {}
        self._budgets: List[object] = []
        self.policy = None
        if getattr(args, "fallback", False):
            from repro.resilience import FallbackPolicy

            self.policy = FallbackPolicy(
                deadline_s=args.deadline, max_units=args.max_units
            )
        self.runlog = getattr(args, "runlog", None) or os.environ.get(
            "REPRO_RUNLOG"
        )
        self.recorder = None
        if record and self.runlog:
            from repro.obs.runlog import RunRecorder

            # The registry location is where the record *lands*, not part
            # of the workload's identity — exclude it so the same
            # invocation logged to two directories produces byte-identical
            # records.
            self.recorder = RunRecorder(
                command,
                {k: v for k, v in vars(args).items() if k != "runlog"},
            )

    def note(self, **fields: object) -> None:
        self.fields.update(fields)

    def units(self, units: Dict[str, float]) -> None:
        if self.recorder is not None:
            self.recorder.add_units(units)

    def work(self, work) -> None:
        if self.recorder is not None:
            self.recorder.add_work(work)

    def quality(self, **quality: float) -> None:
        if self.recorder is not None:
            self.recorder.merge_quality(quality)

    def scheduled(self, ii: int, mii: int) -> None:
        """Count one scheduled loop into the record's quality block."""
        self.quality(
            loops=1, loops_at_mii=int(ii == mii), ii_total=ii, mii_total=mii
        )

    def budget(self, label: str):
        """A fresh :class:`~repro.resilience.Budget` from ``--deadline``/
        ``--max-units`` (``None`` when neither flag is given)."""
        deadline = getattr(self.args, "deadline", None)
        max_units = getattr(self.args, "max_units", None)
        if deadline is None and max_units is None:
            return None
        from repro.resilience import Budget

        budget = Budget(deadline_s=deadline, max_units=max_units, label=label)
        # Kept so the record reports the units actually consumed, not
        # just the configured caps.
        self._budgets.append(budget)
        return budget

    def harvest(self, tracer) -> None:
        """Copy a tracer's query work and profile quality into the record.

        The shared registry keys (``query.<fn>.units`` counters,
        per-function timers, ``profile.*`` quality counters) are the same
        ones the metrics JSON reads, so a runlog record and a
        ``--metrics`` export of the same run always agree.
        """
        if self.recorder is None:
            return
        from repro.obs.instrument import QUERY_FUNCTIONS

        units = {}
        calls = self.recorder.calls
        for function in QUERY_FUNCTIONS:
            name = "query." + function
            value = tracer.metrics.get_counter(name + ".units")
            if value:
                units[function] = value
            timer = tracer.metrics.timers.get(name)
            if timer is not None and timer.count:
                calls[function] = calls.get(function, 0) + timer.count
        self.recorder.add_units(units)
        quality = {
            key: tracer.metrics.get_counter("profile." + key)
            for key in ("loops", "loops_at_mii", "ii_total", "mii_total")
        }
        self.quality(**{key: value for key, value in quality.items() if value})

    def finish(self, code: int) -> None:
        """Append the registry record (when ``--runlog`` is on)."""
        if self.recorder is None:
            return
        self.recorder.note(**self.fields)
        if self._budgets:
            self.recorder.note(budget={
                "units": sum(budget.units for budget in self._budgets),
                "deadline_s": getattr(self.args, "deadline", None),
                "max_units": getattr(self.args, "max_units", None),
            })
        from repro.obs.runlog import RunLog

        record = self.recorder.finalize(_OUTCOME_LABELS.get(code, "fail"), code)
        try:
            RunLog(self.runlog).append(record)
        except OSError as exc:
            # The registry is an observer: failing to append must never
            # change the recorded command's own outcome.
            print(
                "warning: cannot append runlog record to %r: %s"
                % (self.runlog, exc),
                file=sys.stderr,
            )


@contextlib.contextmanager
def _writing(what: str, path: str):
    """Report a failed write of ``path`` as a usage error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ReproError("cannot write %s file %r: %s" % (what, path, exc))


def _export(tracer, args: argparse.Namespace) -> None:
    """Write the ``--metrics`` / ``--trace`` files a traced run asked for."""
    from repro import obs

    if args.metrics:
        with _writing("metrics", args.metrics):
            obs.write_metrics(tracer, args.metrics)
        if args.metrics != "-":
            print("wrote metrics %s" % args.metrics, file=sys.stderr)
    if args.trace:
        with _writing("trace", args.trace):
            obs.write_chrome_trace(tracer, args.trace)
        print(
            "wrote trace %s (open in https://ui.perfetto.dev)" % args.trace,
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# Command handlers: ``handler(args, run) -> exit code``.
# ----------------------------------------------------------------------
def _cmd_reduce(args: argparse.Namespace, run: Run) -> int:
    machine = _load_machine(args.machine)
    run.note(machine=machine.name, rung="full")
    certificate = None
    if run.policy is not None:
        from repro.resilience import reduce_with_fallback

        outcome = reduce_with_fallback(machine, run.policy)
        run.note(rung=outcome.rung)
        print(
            "fallback ladder served rung %r (%s) after %d attempt(s)"
            % (outcome.rung, outcome.marker, len(outcome.attempts))
        )
        for attempt in outcome.attempts:
            if attempt.failed:
                print(
                    "  %s: %s failed (%s)"
                    % (attempt.rung, attempt.detail, attempt.error_type)
                )
        if outcome.reduction is not None:
            print(outcome.reduction.summary())
        served = outcome.machine
        certificate = outcome.certificate
    elif args.cache:
        from repro.resilience import cached_reduce

        cached = cached_reduce(
            machine,
            objective=args.objective,
            word_cycles=args.word_cycles,
            cache_dir=args.cache,
            paranoid=args.paranoid,
        )
        run.note(rung="cache:%s" % cached.source)
        if cached.reduction is not None:
            print(cached.reduction.summary())
        detail = "verified via %s" % cached.verification
        if cached.verify_units:
            detail += ", %d work units" % cached.verify_units
        print(
            "reduction cache: %s (digest %s, %s)"
            % (cached.source, cached.digest[:16], detail)
        )
        served = cached.reduced
        certificate = cached.certificate
    else:
        reduction = reduce_machine(
            machine,
            objective=args.objective,
            word_cycles=args.word_cycles,
            budget=run.budget("reduce"),
        )
        print(reduction.summary())
        served = reduction.reduced
        if args.certificate:
            from repro.core.certificate import issue_certificate

            certificate = issue_certificate(reduction)
    if args.output:
        from repro.resilience import artifacts

        artifacts.write_machine(args.output, served)
        print(
            "wrote %s (+ checksum sidecar %s)"
            % (args.output, artifacts.sidecar_path(args.output))
        )
    if args.certificate:
        from repro.resilience import artifacts

        if certificate is None:
            raise ReproError(
                "no certificate available to write (the served"
                " description was not verified)"
            )
        artifacts.write_certificate(args.certificate, certificate)
        print(
            "wrote certificate %s (%d instances, %d classes)"
            % (
                args.certificate,
                len(certificate.witnesses),
                len(certificate.classes),
            )
        )
    return 0


def _cmd_verify(args: argparse.Namespace, run: Run) -> int:
    from repro.core.verify import differences

    first = _load_machine(args.first)
    second = _load_machine(args.second)
    mismatches = differences(first, second)
    if not mismatches:
        print(
            "EQUIVALENT: %r and %r preserve the same scheduling constraints"
            % (first.name, second.name)
        )
        return 0
    print("NOT EQUIVALENT: %d differing operation pairs" % len(mismatches))
    for op_x, op_y, only_first, only_second in mismatches[: args.limit]:
        print(
            "  %s / %s: only-first=%s only-second=%s"
            % (op_x, op_y, sorted(only_first), sorted(only_second))
        )
    return 1


def _cmd_certify(args: argparse.Namespace, run: Run) -> int:
    from repro.core.certificate import (
        certificate_from_machines,
        check_certificate,
        equivalence_work_units,
    )
    from repro.core.verify import assert_equivalent
    from repro.errors import (
        CertificateError,
        EquivalenceError,
        render_mismatches,
    )
    from repro.resilience import artifacts

    original = _load_machine(args.original)
    reduced = _load_machine(args.reduced)
    run.note(machine=original.name, workload="certify:%s" % reduced.name)
    document = {
        "schema": "repro-certify-report",
        "version": 1,
        "original": original.name,
        "reduced": reduced.name,
        "ok": False,
    }

    def emit(error=None):
        if error is not None:
            document["error"] = error
        if args.format == "json":
            print(json.dumps(document, indent=2, sort_keys=True))

    try:
        if args.cert:
            certificate = artifacts.load_certificate(args.cert)
            source = args.cert
        else:
            certificate = certificate_from_machines(original, reduced)
            source = "issued"
        check = check_certificate(
            certificate, original, reduced,
            recompute_matrix=not args.structural,
        )
        if args.paranoid:
            assert_equivalent(original, reduced)
    except EquivalenceError as exc:
        emit({"kind": "equivalence", "message": str(exc)})
        if args.format != "json":
            print("NOT CERTIFIED: %s" % exc, file=sys.stderr)
            if exc.mismatches:
                print(
                    "  witness pairs: %s"
                    % render_mismatches(exc.mismatches),
                    file=sys.stderr,
                )
        return 1
    except CertificateError as exc:
        error = {"kind": exc.kind or "certificate", "message": str(exc)}
        if exc.instance is not None:
            error["instance"] = list(exc.instance)
        emit(error)
        if args.format != "json":
            print("CERTIFICATE REJECTED: %s" % exc, file=sys.stderr)
        return 1

    # Certificate-check work is denominated in the ``check`` currency
    # (usage-touch units, same as the paper's Table 6 rows).
    run.units({"check": check.units})
    document.update(
        ok=True,
        mode="paranoid" if args.paranoid else check.mode,
        instances=check.instances,
        classes=check.classes,
        units=check.units,
        equivalence_units=equivalence_work_units(original, reduced),
        matrix_digest=certificate.matrix_digest,
        certificate=source,
    )
    if args.emit:
        artifacts.write_certificate(args.emit, certificate)
        document["emitted"] = args.emit
    emit()
    if args.format != "json":
        print(
            "CERTIFIED (%s): %r preserves the scheduling constraints of"
            " %r" % (document["mode"], reduced.name, original.name)
        )
        print(
            "  %d instances in %d classes; check spent %d work units"
            " (full equivalence re-check costs %d)"
            % (
                check.instances, check.classes, check.units,
                document["equivalence_units"],
            )
        )
        if args.emit:
            print(
                "  wrote certificate %s (+ checksum sidecar %s)"
                % (args.emit, artifacts.sidecar_path(args.emit))
            )
    return 0


def _cmd_stats(args: argparse.Namespace, run: Run) -> int:
    from repro.core.forbidden import ForbiddenLatencyMatrix
    from repro.stats import describe

    machine = _load_machine(args.machine)
    matrix = ForbiddenLatencyMatrix.from_machine(machine)
    stats = describe(machine, word_cycles=tuple(args.word_cycles))
    print("machine:                %s" % machine.name)
    print("operations:             %d" % machine.num_operations)
    print("operation classes:      %d" % len(matrix.operation_classes()))
    print("resources:              %d" % stats.num_resources)
    print("total usages:           %d" % machine.total_usages)
    print("avg usages/op:          %.1f" % stats.avg_usages_per_op)
    print("forbidden latencies:    %d (max %d)" % (
        matrix.instance_count, matrix.max_latency))
    for k in args.word_cycles:
        print(
            "avg %d-cycle-word uses:  %.1f" % (k, stats.avg_word_usages[k])
        )
    return 0


def _cmd_show(args: argparse.Namespace, run: Run) -> int:
    from repro import mdl

    sys.stdout.write(mdl.dumps(_load_machine(args.machine)))
    return 0


def _cmd_schedule(args: argparse.Namespace, run: Run) -> int:
    from repro.scheduler import IterativeModuloScheduler

    machine = _load_machine(args.machine)
    if args.corpus:
        return _cmd_schedule_corpus(args, run, machine)
    scheduler = IterativeModuloScheduler(
        machine,
        representation=args.representation,
        word_cycles=args.word_cycles,
    )
    workload, graphs = _suite(args)
    optimal = 0
    run.note(
        machine=machine.name,
        workload=workload,
        representation=args.representation,
        rung="full",
    )
    if run.policy is not None:
        from repro.resilience import schedule_with_fallback

        print(
            "%-22s %4s %4s %4s %-6s"
            % ("loop", "ops", "MII", "II", "rung")
        )
        rungs = set()
        for graph in graphs:
            outcome = schedule_with_fallback(
                machine,
                graph,
                run.policy,
                representation=args.representation,
                word_cycles=args.word_cycles,
                matrix=scheduler.matrix,
            )
            optimal += outcome.ii == outcome.mii
            rungs.add(outcome.rung)
            run.scheduled(outcome.ii, outcome.mii)
            print(
                "%-22s %4d %4d %4d %-6s"
                % (
                    graph.name,
                    graph.num_operations,
                    outcome.mii,
                    outcome.ii,
                    outcome.rung,
                )
            )
        run.note(rung=",".join(sorted(rungs)) or "full")
    else:
        print(
            "%-22s %4s %4s %4s %8s"
            % ("loop", "ops", "MII", "II", "dec/op")
        )
        for graph in graphs:
            result = scheduler.schedule(
                graph, budget=run.budget("schedule:" + graph.name)
            )
            optimal += result.optimal
            run.scheduled(result.ii, result.mii)
            print(
                "%-22s %4d %4d %4d %8.2f"
                % (
                    graph.name,
                    graph.num_operations,
                    result.mii,
                    result.ii,
                    result.decisions_per_op,
                )
            )
    print(
        "\n%d/%d loops scheduled at MII (%.1f%%)"
        % (optimal, len(graphs), 100.0 * optimal / len(graphs))
    )
    if args.explain:
        _write_explain_report(machine, graphs, args, args.explain)
    return 0


def _cmd_schedule_corpus(args: argparse.Namespace, run: Run, machine) -> int:
    """``repro schedule --corpus``: the whole suite in one pass."""
    from repro.scheduler.corpus import CorpusScheduler

    workload, graphs = _suite(args)
    budget = run.budget("schedule:corpus") if run.policy is None else None
    scheduler = CorpusScheduler(
        machine,
        representation=args.representation,
        word_cycles=args.word_cycles,
        policy=run.policy,
        processes=args.processes,
    )
    run.note(
        machine=machine.name,
        workload=workload,
        representation=args.representation,
        rung="corpus",
    )
    result = scheduler.schedule_suite(graphs, budget=budget)
    print(
        "%-22s %4s %4s %4s %-6s"
        % ("loop", "ops", "MII", "II", "rung")
    )
    optimal = 0
    for outcome in result.outcomes:
        if outcome.failed:
            print(
                "%-22s %4d %4s %4s %-6s"
                % (outcome.name, outcome.ops, "-", "-",
                   outcome.error_type)
            )
            continue
        optimal += outcome.ii == outcome.mii
        run.scheduled(outcome.ii, outcome.mii)
        print(
            "%-22s %4d %4d %4d %-6s"
            % (outcome.name, outcome.ops, outcome.mii,
               outcome.ii, outcome.rung)
        )
    print(
        "\ncorpus: %d scheduled, %d degraded, %d failed of %d loops"
        " (%d at MII)"
        % (result.scheduled, result.degraded, result.failed,
           len(result.outcomes), optimal)
    )
    run.work(result.work)
    return 1 if result.failed else 0


def _write_explain_report(machine, graphs, args, path: str) -> None:
    """Build and write a ``repro-explain-report`` v1 JSON artifact."""
    from repro.analysis import build_explain_report
    from repro.resilience import artifacts

    report = build_explain_report(
        machine,
        graphs,
        representation=args.representation,
        word_cycles=args.word_cycles,
    )
    artifacts.write_json(path, report, kind="explain")
    print("wrote explain report %s" % path, file=sys.stderr)


def _cmd_explain(args: argparse.Namespace, run: Run) -> int:
    from repro.analysis import (
        build_explain_report,
        render_explain_html,
        render_explain_text,
    )
    from repro.workloads import port_graph

    machine = _load_machine(args.machine)
    workload, graphs = _suite(args)
    # The suite speaks the Cydra vocabulary; port it onto machines with
    # a registered opcode map (playdoh, alpha, mips) so every study
    # machine can be explained.
    graphs = [port_graph(graph, machine) for graph in graphs]
    run.note(
        machine=machine.name,
        workload=workload,
        representation=args.representation,
    )
    report = build_explain_report(
        machine,
        graphs,
        representation=args.representation,
        word_cycles=args.word_cycles,
    )
    if args.format == "json":
        if args.out:
            from repro.resilience import artifacts

            artifacts.write_json(args.out, report, kind="explain")
            print("wrote explain report %s" % args.out, file=sys.stderr)
        else:
            json.dump(report, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
    else:
        render = (
            render_explain_html if args.format == "html"
            else render_explain_text
        )
        text = render(report, machine)
        if args.out:
            from repro._atomic import atomic_write_text

            with _writing("explain", args.out):
                atomic_write_text(args.out, text + "\n")
            print("wrote %s" % args.out, file=sys.stderr)
        else:
            print(text)
    run.note(failed=report["summary"]["failed"])
    return 0 if report["summary"]["failed"] == 0 else 1


def _cmd_chaos(args: argparse.Namespace, run: Run) -> int:
    from repro.resilience import artifacts, run_chaos

    machine = _load_machine(args.machine)
    run.note(machine=machine.name, seed=args.seed)
    report = run_chaos(
        machine,
        seed=args.seed,
        faults=args.faults,
        workdir=args.workdir,
        budget=run.budget("chaos"),
    )
    print(report.render_text())
    if args.out:
        header = artifacts.write_json(
            args.out, report.to_dict(), kind="chaos"
        )
        # Read the artifact straight back: a chaos run that cannot
        # round-trip its own report through the checksummed store is
        # itself a resilience failure.
        artifacts.verify_artifact(args.out)
        print(
            "wrote %s (sha256 %s)" % (args.out, header["sha256"]),
            file=sys.stderr,
        )
    run.note(
        faults=len(report.outcomes),
        unhandled=sum(1 for r in report.outcomes if not r.handled),
    )
    # Exit-code contract: 0 = every fault handled, 1 = any unhandled
    # fault, 3 = budget exceeded (raised through the runner).
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace, run: Run) -> int:
    from repro.fuzz import run_campaign
    from repro.resilience import artifacts

    report = run_campaign(
        seed=args.seed,
        runs=args.runs,
        profile=args.profile,
        max_units=args.budget,
        do_shrink=args.shrink,
        bundle_dir=args.bundles,
        plans_every=args.plans_every,
    )
    counts = report["counts"]
    run.note(
        workload="fuzz[%d]" % args.runs,
        seed=args.seed,
        fuzz_profile=args.profile,
        ok_runs=counts["ok"],
        handled_runs=counts["handled"],
        bug_runs=counts["bug"],
    )
    print(
        "fuzz campaign seed=%d profile=%s: %d runs"
        % (args.seed, args.profile, args.runs)
    )
    print(
        "  ok=%d handled=%d bug=%d plans=%d"
        % (
            counts["ok"], counts["handled"], counts["bug"],
            len(report["plans"]),
        )
    )
    for bug in report["bugs"]:
        print(
            "  BUG run=%d seed=%d %s (%s)"
            % (
                bug["run"], bug["seed"], bug["fingerprint"],
                bug["stage"],
            )
        )
    for manifest in report["bundles"]:
        print("  repro bundle: %s" % manifest["directory"])
    if args.out:
        artifacts.write_json(args.out, report, kind="fuzz")
        artifacts.verify_artifact(args.out)
        print("wrote %s" % args.out, file=sys.stderr)
    return 0 if report["ok"] else 1


def _cmd_report(args: argparse.Namespace, run: Run) -> int:
    from repro.analysis import describe_machine, describe_reduction

    machine = _load_machine(args.machine)
    print(describe_machine(machine))
    if args.reduce:
        print()
        print(
            describe_reduction(
                reduce_machine(
                    machine,
                    objective=args.objective,
                    word_cycles=args.word_cycles,
                )
            )
        )
    return 0


def _cmd_diff(args: argparse.Namespace, run: Run) -> int:
    from repro.analysis import diff_constraints
    from repro.core import find_witness

    first = _load_machine(args.first)
    second = _load_machine(args.second)
    text = diff_constraints(first, second, limit=args.limit)
    print(text)
    if text.startswith("EQUIVALENT"):
        return 0
    witness = find_witness(first, second)
    if witness is not None:
        print("witness: " + witness.describe())
    return 1


def _cmd_expand(args: argparse.Namespace, run: Run) -> int:
    from repro.scheduler import IterativeModuloScheduler, expand
    from repro.workloads import KERNELS

    machine = _load_machine(args.machine)
    scheduler = IterativeModuloScheduler(machine)
    graph = KERNELS[args.kernel]()
    result = scheduler.schedule(graph)
    expanded = expand(result, iterations=args.iterations)
    print(
        "%s on %s: II=%d (MII=%d), %d stages"
        % (graph.name, machine.name, result.ii, result.mii,
           expanded.num_stages)
    )
    print()
    print(expanded.render_kernel())
    print()
    print("timeline (%d iterations):" % args.iterations)
    print(expanded.render_timeline(limit=args.limit))
    return 0


def _cmd_automata(args: argparse.Namespace, run: Run) -> int:
    from repro.automata import (
        AutomatonTooLarge,
        FactoredAutomata,
        PipelineAutomaton,
    )
    from repro.obs import trace as obs_trace

    machine = _load_machine(args.machine)
    run.note(machine=machine.name)
    try:
        with obs_trace.span(
            "build_monolithic", obs_trace.CAT_AUTOMATA,
            machine=machine.name,
        ):
            monolithic = PipelineAutomaton.build(
                machine, max_states=args.max_states
            )
        print(
            "monolithic automaton: %d states, %d transitions (~%d KiB)"
            % (
                monolithic.num_states,
                monolithic.num_transitions,
                monolithic.memory_bytes() // 1024,
            )
        )
    except AutomatonTooLarge:
        print(
            "monolithic automaton: exceeds %d states" % args.max_states
        )
    try:
        with obs_trace.span(
            "build_factored", obs_trace.CAT_AUTOMATA,
            machine=machine.name, mode=args.factor,
        ):
            factored = FactoredAutomata.build(
                machine, mode=args.factor, max_states=args.max_states
            )
        print(
            "%s-factored automata: %d factors, %d total states "
            "(largest %d, ~%d KiB)"
            % (
                args.factor,
                factored.num_factors,
                factored.num_states,
                factored.max_factor_states,
                factored.memory_bytes() // 1024,
            )
        )
    except AutomatonTooLarge:
        print(
            "%s-factored automata: a factor exceeds %d states"
            % (args.factor, args.max_states)
        )
    print(
        "reduced bitvector alternative: %d reserved bits per cycle"
        % reduce_machine(machine).reduced.num_resources
    )
    return 0


def _cmd_profile(args: argparse.Namespace, run: Run) -> int:
    from repro import obs
    from repro.obs.profile import profile_machine

    machine = _load_machine(args.machine)
    run.note(
        machine=machine.name,
        workload=args.kernel or ("suite[%d]" % args.loops),
        representation=args.representation,
    )
    # Per-query spans are only worth recording when a per-span export
    # (Chrome trace or flamegraph) is requested.
    tracer = obs.Tracer(
        trace_queries=bool(args.trace or args.flamegraph)
    )
    sampler = None
    if args.sample:
        from repro.obs.sampler import StackSampler

        sampler = StackSampler(
            interval_s=args.sample_interval, tracer=tracer
        ).start()
    try:
        profile_machine(
            machine,
            kernel=args.kernel,
            loops=args.loops,
            representation=args.representation,
            word_cycles=args.word_cycles,
            objective=args.objective,
            schedule_reduced=args.reduced,
            tracer=tracer,
            reduction_cache=args.reduction_cache,
        )
    finally:
        if sampler is not None:
            sampler.stop()
    run.harvest(tracer)
    if sampler is not None:
        print(
            "sampler: %d stacks captured at %.1fms intervals"
            % (sampler.samples, sampler.interval_s * 1e3),
            file=sys.stderr,
        )
    if args.metrics != "-" and args.flamegraph != "-":
        # With ``--metrics -``/``--flamegraph -`` stdout carries the
        # export alone.
        print(obs.render_text(tracer))
    _export(tracer, args)
    if args.flamegraph:
        lines = obs.collapsed_stack_lines(tracer)
        if sampler is not None:
            # Sampled stacks (weighted in estimated microseconds, rooted
            # under "sampler") merge into the same collapsed file as the
            # instrumented spans — one flamegraph, two vantage points.
            lines.extend(sampler.collapsed_lines())
        text = "\n".join(lines) + "\n" if lines else ""
        if args.flamegraph == "-":
            sys.stdout.write(text)
        else:
            from repro._atomic import atomic_write_text

            with _writing("flamegraph", args.flamegraph):
                atomic_write_text(args.flamegraph, text)
            print(
                "wrote collapsed stacks %s (flamegraph.pl / speedscope"
                " / inferno)" % args.flamegraph,
                file=sys.stderr,
            )
    return 0


def _cmd_bench_run(args: argparse.Namespace, run: Run) -> int:
    from repro.bench import render_result_text, runner, save_result
    from repro.query.modulo import REPRESENTATIONS

    names = args.machines or (
        runner.QUICK_MACHINES if args.quick else runner.DEFAULT_MACHINES
    )
    machines = [(name, _load_machine(name)) for name in names]
    representations = [
        r.strip() for r in args.representations.split(",") if r.strip()
    ]
    for representation in representations:
        if representation not in REPRESENTATIONS:
            raise ReproError(
                "unknown representation %r (choose from %s)"
                % (representation, ", ".join(REPRESENTATIONS))
            )
    loops = args.loops or (
        runner.QUICK_LOOPS if args.quick else runner.DEFAULT_LOOPS
    )
    repetitions = args.repetitions or (
        runner.QUICK_REPETITIONS if args.quick else runner.DEFAULT_REPETITIONS
    )
    corpus_loops = args.corpus_loops
    if corpus_loops is None:
        corpus_loops = (
            runner.QUICK_CORPUS_LOOPS if args.quick
            else runner.DEFAULT_CORPUS_LOOPS
        )
    result = runner.run_benchmark(
        machines,
        representations=representations,
        loops=loops,
        repetitions=repetitions,
        schedule_reduced=args.reduced,
        budget=run.budget("bench"),
        label=args.label,
        quick=args.quick,
        case_filter=args.filter,
        corpus_loops=corpus_loops,
    )
    run.note(
        machine=",".join(name for name, _ in machines),
        workload="bench[%d cases]" % len(result.cases),
        representation=args.representations,
    )
    for case in result.cases.values():
        units = {}
        for key, value in case.work.items():
            # Case work keys are "query.<currency>.units"; the registry
            # stores bare currency names.
            if key.startswith("query.") and key.endswith(".units"):
                units[key[len("query."):-len(".units")]] = value
        run.units(units)
        run.quality(**{
            key: case.quality[key]
            for key in ("loops", "loops_at_mii", "ii_total", "mii_total")
            if key in case.quality
        })
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_result_text(result))
    if args.output:
        save_result(args.output, result)
        print("wrote %s (+ checksum sidecar)" % args.output,
              file=sys.stderr)
    return 0


def _cmd_bench_compare(args: argparse.Namespace, run: Run) -> int:
    from repro.bench import (
        CompareConfig,
        compare_results,
        load_result,
        render_comparison_text,
    )
    from repro.resilience import artifacts

    base = load_result(args.base)
    new = load_result(args.new)
    config = CompareConfig(
        work_ratio=args.work_ratio,
        quality_ratio=args.quality_ratio,
        gate_wall=args.gate_wall,
        min_units=args.min_units,
    )
    comparison = compare_results(base, new, config)
    if args.format == "json":
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            render_comparison_text(
                comparison, base, new, top=args.top, verbose=args.verbose
            )
        )
    if args.output:
        artifacts.write_json(
            args.output, comparison.to_dict(), kind="bench-compare"
        )
        print("wrote %s (+ checksum sidecar)" % args.output,
              file=sys.stderr)
    return 0 if comparison.ok else 1


def _cmd_bench_report(args: argparse.Namespace, run: Run) -> int:
    from repro.bench import load_result, render_result_text

    result = load_result(args.result)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_result_text(result))
    return 0


def _runs_log(run: Run):
    """Open the registry named by ``--runlog`` / ``REPRO_RUNLOG``."""
    from repro.obs.runlog import RunLog

    if not run.runlog:
        raise ReproError(
            "no run registry: pass --runlog DIR or set REPRO_RUNLOG"
        )
    if not os.path.isdir(run.runlog):
        raise ReproError("run registry %r does not exist" % run.runlog)
    return RunLog(run.runlog)


def _cmd_runs_list(args: argparse.Namespace, run: Run) -> int:
    log = _runs_log(run)
    records = log.records()
    if args.tail:
        records = records[-args.tail:]
    if args.format == "json":
        print(json.dumps(
            [
                record.data if not record.corrupt
                else {"seq": record.seq, "corrupt": True,
                      "error": record.error}
                for record in records
            ],
            indent=2, sort_keys=True,
        ))
        return 0
    print(
        "%6s  %-10s %-8s %4s %9s %12s  %s"
        % ("seq", "command", "outcome", "exit", "dur s", "units", "what")
    )
    for record in records:
        if record.corrupt:
            print(
                "%6d  CORRUPT: %s" % (record.seq, record.error)
            )
            continue
        what = str(
            record.data.get("machine", record.data.get("workload", ""))
        )
        workload = record.data.get("workload")
        if workload and workload != what:
            what = "%s %s" % (what, workload)
        print(
            "%6d  %-10s %-8s %4s %9.3f %12d  %s"
            % (
                record.seq,
                record.command,
                record.outcome,
                record.data.get("exit_code", "?"),
                float(record.data.get("duration_s", 0.0)),
                int(sum(record.units().values())),
                what,
            )
        )
    corrupt = sum(1 for record in records if record.corrupt)
    print(
        "\n%d record(s)%s in %s"
        % (
            len(records),
            " (%d corrupt)" % corrupt if corrupt else "",
            log.directory,
        )
    )
    return 1 if corrupt else 0


def _cmd_runs_show(args: argparse.Namespace, run: Run) -> int:
    record = _runs_log(run).get(args.seq)
    if record.corrupt:
        print(
            "record %d is corrupt: %s" % (record.seq, record.error),
            file=sys.stderr,
        )
        if record.data:
            print(json.dumps(record.data, indent=2, sort_keys=True))
        return 1
    print(json.dumps(record.data, indent=2, sort_keys=True))
    return 0


def _cmd_runs_diff(args: argparse.Namespace, run: Run) -> int:
    from repro.bench import CompareConfig, compare_metric_maps
    from repro.errors import RunlogError

    log = _runs_log(run)
    base = log.get(args.base)
    new = log.get(args.new)
    for which, record in (("base", base), ("candidate", new)):
        if record.corrupt:
            raise RunlogError(
                "%s record %d is corrupt: %s"
                % (which, record.seq, record.error),
                path=record.path,
            )
    case_key = "runs %d..%d" % (base.seq, new.seq)
    comparison = compare_metric_maps(
        case_key,
        {"units." + k: v for k, v in base.units().items()},
        {"units." + k: v for k, v in new.units().items()},
        base_quality=base.quality(),
        new_quality=new.quality(),
        config=CompareConfig(
            work_ratio=args.work_ratio,
            quality_ratio=args.quality_ratio,
            min_units=args.min_units,
        ),
    )
    if args.format == "json":
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
        return 0 if comparison.ok else 1
    print(
        "diff %s: base seq %d (%s) vs candidate seq %d (%s)"
        % (case_key, base.seq, base.command, new.seq, new.command)
    )
    for note in comparison.notes:
        print("  note: %s" % note)
    for delta in comparison.deltas:
        ratio = delta.ratio
        print(
            "  %-28s %12s -> %-12s %-8s %-12s%s"
            % (
                delta.metric,
                "-" if delta.base is None else "%g" % delta.base,
                "-" if delta.new is None else "%g" % delta.new,
                "x%.4f" % ratio if ratio is not None else "",
                delta.classification,
                " [gated]" if delta.gated else "",
            )
        )
    print("verdict: %s" % ("ok" if comparison.ok else "REGRESSION"))
    return 0 if comparison.ok else 1


def _cmd_runs_trend(args: argparse.Namespace, run: Run) -> int:
    from repro.obs.runlog import detect_changepoint

    log = _runs_log(run)
    points = log.series(args.metric, window=args.window)
    if len(points) < 4:
        print(
            "trend %s: %d point(s) — need at least 4 to test for a"
            " changepoint" % (args.metric, len(points))
        )
        return 0
    changepoint = detect_changepoint(
        points,
        args.metric,
        seed=args.seed,
        permutations=args.permutations,
        alpha=args.alpha,
        min_ratio=args.min_ratio,
        bigger_is_better=args.metric.endswith("loops_at_mii"),
    )
    values = [value for _seq, value in points]
    print(
        "trend %s: %d points (seq %d..%d), mean %.3f"
        % (
            args.metric, len(points), points[0][0], points[-1][0],
            sum(values) / len(values),
        )
    )
    if changepoint is None:
        print("no significant changepoint")
        return 0
    print(
        "%s at seq %d: mean %.3f -> %.3f (x%.4f), score %.3f,"
        " p=%.4f (seeded permutation test, seed=%d)"
        % (
            changepoint.direction.upper(),
            changepoint.seq,
            changepoint.before,
            changepoint.after,
            changepoint.ratio if changepoint.ratio is not None else 0.0,
            changepoint.score,
            changepoint.p_value,
            args.seed,
        )
    )
    if args.format == "json":
        print(json.dumps(changepoint.to_dict(), indent=2, sort_keys=True))
    return 1 if changepoint.direction == "regression" else 0


def _cmd_runs_gc(args: argparse.Namespace, run: Run) -> int:
    log = _runs_log(run)
    removed = log.gc(keep=args.keep, prune_corrupt=args.prune_corrupt)
    remaining = len(log.records())
    print(
        "removed %d record(s), %d remaining in %s"
        % (len(removed), remaining, log.directory)
    )
    return 0


def _cmd_runs_metrics(args: argparse.Namespace, run: Run) -> int:
    from repro.obs.openmetrics import (
        metrics_to_openmetrics,
        runlog_to_openmetrics,
        write_openmetrics,
    )

    if args.from_metrics:
        try:
            with open(args.from_metrics, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ReproError(
                "cannot read metrics JSON %r: %s" % (args.from_metrics, exc)
            )
        text = metrics_to_openmetrics(document)
    else:
        log = _runs_log(run)
        text = runlog_to_openmetrics(log.tail(args.tail))
    with _writing("OpenMetrics", args.out):
        write_openmetrics(text, args.out)
    if args.out != "-":
        print("wrote OpenMetrics exposition %s" % args.out,
              file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace, run: Run) -> int:
    from repro.lint import (
        Baseline,
        lint_machine,
        lint_source,
        registered_rules,
        write_baseline,
    )

    if args.list_rules:
        if args.format == "json":
            print(
                json.dumps(
                    [
                        {
                            "id": lint_rule.id,
                            "severity": lint_rule.severity,
                            "summary": lint_rule.summary,
                        }
                        for lint_rule in registered_rules()
                    ],
                    indent=2,
                )
            )
        else:
            for lint_rule in registered_rules():
                print(
                    "%-24s %-8s %s"
                    % (lint_rule.id, lint_rule.severity, lint_rule.summary)
                )
        return 0
    if not args.machine and not args.code:
        raise ReproError("lint needs a machine (or --code / --list-rules)")

    baseline = Baseline.load(args.baseline) if args.baseline else None
    severity_overrides = {}
    for override in args.severity or []:
        rule_id, eq, severity = override.partition("=")
        if not eq:
            raise ReproError(
                "--severity takes RULE=LEVEL, got %r" % override
            )
        severity_overrides[rule_id] = severity
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    options = {
        "max_cycle": args.max_cycle,
        "mismatch_limit": args.mismatch_limit,
    }

    if args.code:
        from repro.lint.code import lint_code_paths

        if args.against:
            raise ReproError("--against does not apply to lint --code")
        report = lint_code_paths(
            paths=args.machine or None,
            rules=rules,
            severity_overrides=severity_overrides,
            baseline=baseline,
            options=options,
        )
    else:
        from repro.mdl import RawMachine

        if len(args.machine) > 1:
            raise ReproError(
                "lint audits one machine at a time"
                " (multiple paths are a --code feature)"
            )
        reference = (
            _load_machine(args.against) if args.against else None
        )
        machine = _load_machine(args.machine[0], raw=True)
        lint = lint_source if isinstance(machine, RawMachine) else lint_machine
        report = lint(
            machine,
            against=reference,
            rules=rules,
            severity_overrides=severity_overrides,
            baseline=baseline,
            options=options,
        )

    if args.write_baseline:
        write_baseline(args.write_baseline, [report])
        print(
            "wrote %d suppression(s) to %s"
            % (len(report.diagnostics), args.write_baseline),
            file=sys.stderr,
        )

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text(show_info=args.show_info))
    return 1 if report.exceeds(args.fail_on) else 0


def _cmd_table(args: argparse.Namespace, run: Run) -> int:
    from repro.stats import render_reduction_table

    machine = _load_machine(args.machine)
    reductions = {"res-uses": reduce_machine(machine)}
    for k in args.word_cycles:
        reductions["%d-cycle-word" % k] = reduce_machine(
            machine, objective="word-uses", word_cycles=k
        )
    print(
        render_reduction_table(
            "Machine description metrics: %s" % machine.name,
            machine,
            reductions,
            word_cycles=tuple(args.word_cycles),
        )
    )
    return 0


# ----------------------------------------------------------------------
# Shared flag groups, each declared once and named in a table row's
# ``flags``.  A row's per-command ``defaults`` are parser defaults, so a
# flag declared here without ``default=`` takes the row's value.
# ----------------------------------------------------------------------
def _observe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics",
        metavar="FILE",
        help="write metrics JSON to FILE ('-' for stdout)",
    )
    p.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace_event JSON to FILE (Perfetto-loadable)",
    )


def _budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; an exceeded budget exits 3",
    )
    p.add_argument(
        "--max-units",
        type=int,
        metavar="N",
        help="work-unit budget (same currency as the query metrics);"
        " an exceeded budget exits 3",
    )


def _fallback_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fallback",
        action="store_true",
        help="degrade down the verified fallback ladder instead of failing",
    )


def _runlog_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--runlog",
        metavar="DIR",
        help="the run registry directory (default: $REPRO_RUNLOG when"
        " set; see 'repro runs')",
    )


def _format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _objective_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--objective", choices=("res-uses", "word-uses"), default="res-uses"
    )


def _compare_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--work-ratio",
        type=float,
        default=1.01,
        help="deterministic work counters fail beyond this ratio"
        " (default: 1.01)",
    )
    p.add_argument(
        "--quality-ratio",
        type=float,
        default=1.0,
        help="schedule-quality counters fail beyond this ratio"
        " (default: 1.0 — any II increase fails)",
    )
    p.add_argument(
        "--min-units",
        type=float,
        default=16.0,
        help="ignore work counters below this many units (default: 16)",
    )


def _suite_flags(p: argparse.ArgumentParser) -> None:
    from repro.query.modulo import REPRESENTATIONS
    from repro.workloads import KERNELS

    p.add_argument(
        "--kernel",
        choices=sorted(KERNELS),
        help="one named kernel instead of the loop suite",
    )
    p.add_argument(
        "--loops",
        type=int,
        help="loop-suite size when no kernel is given (default: %(default)s)",
    )
    p.add_argument(
        "--representation",
        choices=REPRESENTATIONS,
        help="query representation (default: %(default)s)",
    )
    p.add_argument("--word-cycles", type=int, default=1)


# ----------------------------------------------------------------------
# Per-command arguments (beyond the shared flag groups).
# ----------------------------------------------------------------------
def _machine_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine", help="built-in name or MDL file")


def _pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--limit", type=int)


def _word_table_args(p: argparse.ArgumentParser) -> None:
    _machine_arg(p)
    p.add_argument("--word-cycles", type=int, nargs="+", default=[1, 2, 4])


def _reduce_args(p: argparse.ArgumentParser) -> None:
    _machine_arg(p)
    p.add_argument("--word-cycles", type=int, default=1)
    p.add_argument(
        "-o",
        "--output",
        help="write reduced machine as a checksummed MDL artifact",
    )
    p.add_argument(
        "--cache",
        metavar="DIR",
        help="digest-keyed reduction cache directory: repeats are served"
        " from verified checksummed artifacts (corrupt entries fall back"
        " to a fresh reduction and are rewritten)",
    )
    p.add_argument(
        "--certificate",
        metavar="FILE",
        help="write the reduction's preservation certificate as a"
        " checksummed artifact",
    )
    p.add_argument(
        "--paranoid",
        action="store_true",
        help="with --cache: re-prove disk hits with the full"
        " forbidden-matrix equivalence check instead of the certificate",
    )


def _certify_args(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Prove that REDUCED preserves the scheduling constraints of"
        " ORIGINAL.  Without --cert, a certificate is issued (and"
        " optionally written with --emit); with --cert, the stored"
        " certificate artifact is validated independently — soundness and"
        " coverage of its Theorem-1 witness pairs plus a recomputation of"
        " the original's forbidden matrix.  Exits 1 when certification"
        " fails."
    )
    p.add_argument("original", help="built-in name or MDL file")
    p.add_argument("reduced", help="built-in name or MDL file")
    p.add_argument(
        "--cert",
        metavar="FILE",
        help="validate this certificate artifact instead of issuing",
    )
    p.add_argument(
        "--emit",
        metavar="FILE",
        help="write the certificate as a checksummed artifact",
    )
    p.add_argument(
        "--structural",
        action="store_true",
        help="skip recomputing the original's matrix (binding by"
        " canonical-MDL digest only — the warm-cache trust model)",
    )
    p.add_argument(
        "--paranoid",
        action="store_true",
        help="additionally run the full forbidden-matrix equivalence"
        " check",
    )


def _report_args(p: argparse.ArgumentParser) -> None:
    _machine_arg(p)
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--word-cycles", type=int, default=1)


def _expand_args(p: argparse.ArgumentParser) -> None:
    from repro.workloads import KERNELS

    _machine_arg(p)
    p.add_argument("--kernel", choices=sorted(KERNELS), default="daxpy")
    p.add_argument("--iterations", type=int, default=4)
    p.add_argument("--limit", type=int, default=48)


def _automata_args(p: argparse.ArgumentParser) -> None:
    _machine_arg(p)
    p.add_argument("--factor", choices=("unit", "resource"), default="unit")
    p.add_argument("--max-states", type=int, default=200_000)


def _profile_args(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Run the full pipeline (forbidden matrix, Algorithm 1, selection,"
        " Iterative Modulo Scheduling) with the observability layer active"
        " and print a per-phase time/work breakdown.  Optionally export"
        " metrics JSON and a Perfetto-loadable Chrome trace."
    )
    _machine_arg(p)
    p.add_argument(
        "--reduced",
        action="store_true",
        help="schedule on the reduced description (paper's configuration)",
    )
    p.add_argument(
        "--reduction-cache",
        metavar="DIR",
        help="serve the reduction from a digest-keyed cache directory"
        " (entries are verified on load; corruption falls back to a"
        " fresh reduction)",
    )
    p.add_argument(
        "--flamegraph",
        metavar="FILE",
        help="write spans as collapsed stacks ('-' for stdout) for"
        " flamegraph.pl / speedscope / inferno",
    )
    p.add_argument(
        "--sample",
        action="store_true",
        help="run the background sampling stack profiler alongside the"
        " span tracer; sampled stacks merge into --flamegraph and charge"
        " the 'sample' work currency",
    )
    p.add_argument(
        "--sample-interval",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="sampling period for --sample (default: 0.005)",
    )


def _bench_args(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Record schema-versioned benchmark results (deterministic work"
        " units, robust wall-time statistics, per-phase spans, schedule"
        " quality), compare a candidate run against a baseline with a"
        " noise-immune gate, and render stored results.  See"
        " docs/benchmarking.md."
    )


def _bench_run_args(p: argparse.ArgumentParser) -> None:
    from repro.query.modulo import REPRESENTATIONS

    p.add_argument(
        "machines",
        nargs="*",
        help="machines to benchmark (default: example + cydra5-subset;"
        " --quick: example only)",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="the CI configuration: small loop count, 3 repetitions",
    )
    p.add_argument(
        "--representations",
        default=",".join(REPRESENTATIONS),
        metavar="R[,R]",
        help="query representations to matrix over (default: %(default)s)",
    )
    p.add_argument(
        "--filter",
        metavar="SUBSTRING",
        help="run only cases whose 'machine/representation' key contains"
        " SUBSTRING (e.g. 'cydra5-subset/' or '/compiled')",
    )
    p.add_argument(
        "--loops",
        type=int,
        help="loop-suite size per case (default: 8; --quick: 4)",
    )
    p.add_argument(
        "--corpus-loops",
        type=int,
        metavar="N",
        help="suite size for the corpus cell"
        " (default: 24; --quick: 8; 0 skips it)",
    )
    p.add_argument(
        "--repetitions",
        type=int,
        help="wall-time repetitions per case (default: 5; --quick: 3)",
    )
    p.add_argument(
        "--reduced",
        action="store_true",
        help="schedule on the reduced description",
    )
    p.add_argument("--label", default="", help="free-form run label")
    p.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the result as a checksummed JSON artifact",
    )


def _bench_compare_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("base", help="baseline result file")
    p.add_argument("new", help="candidate result file")
    p.add_argument(
        "--gate-wall",
        action="store_true",
        help="let wall-time regressions (disjoint bootstrap intervals)"
        " fail the gate — only meaningful on identical hardware",
    )
    p.add_argument(
        "--top",
        type=int,
        default=5,
        help="phases per case in the differential profile (default: 5)",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="also list neutral / unclassified deltas",
    )
    p.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the comparison report as a checksummed JSON artifact",
    )


def _bench_report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("result", help="result file written by bench run -o")


def _lint_args(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Audit a machine description for constraint-level defects:"
        " redundant or unused rows, collapsible operations, dominated"
        " alternatives, ill-formed cycles, and (with --against)"
        " forbidden-latency disagreement with a reference description."
        " With --code, audit Python sources instead: determinism"
        " (unordered iteration), work accounting, budget checkpoints,"
        " atomic writes, and exception hygiene."
    )
    p.add_argument(
        "machine",
        nargs="*",
        help="built-in name or MDL file; with --code, files or"
        " directories of Python sources (default: the repro package)",
    )
    p.add_argument(
        "--code",
        action="store_true",
        help="run the code-plane rules over Python sources instead of"
        " a machine description",
    )
    p.add_argument(
        "--against",
        metavar="REF",
        help="reference description for the equivalence audit",
    )
    p.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        default="error",
        help="exit 1 when findings reach this severity (default: error)",
    )
    p.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in this baseline file",
    )
    p.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record the current findings into a baseline file",
    )
    p.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        help="run only these rule ids (default: all)",
    )
    p.add_argument(
        "--severity",
        action="append",
        metavar="RULE=LEVEL",
        help="override a rule's severity (repeatable)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    p.add_argument(
        "--show-info",
        action="store_true",
        help="list info-severity findings in text output",
    )
    p.add_argument(
        "--max-cycle",
        type=int,
        default=512,
        help="plausibility bound for the cycle-overflow rule",
    )
    p.add_argument(
        "--mismatch-limit",
        type=int,
        default=20,
        help="cap on reported equivalence mismatches",
    )


def _schedule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine")
    p.add_argument(
        "--corpus",
        action="store_true",
        help="schedule the whole suite in one pass with one scheduler;"
        " loop failures are contained per loop and reported, exiting 1",
    )
    p.add_argument(
        "--processes",
        type=int,
        default=0,
        metavar="N",
        help="with --corpus: fan the suite out over N worker processes"
        " (forced serial when a --max-units/--deadline budget is set)",
    )
    p.add_argument(
        "--explain",
        metavar="FILE",
        help="also write a repro-explain-report v1 JSON artifact"
        " attributing MII and per-II failures (see 'repro explain')",
    )


def _explain_args(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Replay the iterative modulo scheduler under a recording decision"
        " ledger and report why each loop scheduled at the II it did:"
        " which constraint pins MII (recurrence, saturated resource, or"
        " self-contention), which (resource, cycle) cells blocked each"
        " failed II, and what was evicted.  Exits 1 when any loop failed"
        " to schedule."
    )
    p.add_argument("machine")
    p.add_argument(
        "--format",
        choices=("text", "json", "html"),
        default="text",
    )
    p.add_argument(
        "-o", "--out",
        metavar="FILE",
        help="write the report to FILE (JSON becomes a checksummed"
        " artifact; text/HTML are written verbatim)",
    )


def _chaos_args(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Inject seed-derived faults (dropped/shifted usages, phase delays,"
        " truncated artifact writes, flipped checksums, corrupted"
        " reduction-cache entries) and report whether each was detected or"
        " survived via the verified fallback ladder.  Exits 0 when every"
        " fault was handled, 1 when any fault goes unhandled, and 3 when"
        " the --deadline/--max-units budget is exceeded."
    )
    _machine_arg(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--faults",
        nargs="+",
        metavar="FAULT",
        choices=(
            "drop-usage",
            "shift-usage",
            "phase-delay",
            "truncate-write",
            "flip-checksum",
            "corrupt-cache",
        ),
        help="fault classes to inject (default: all)",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        help="write the chaos report as a checksummed JSON artifact",
    )
    p.add_argument(
        "--workdir",
        metavar="DIR",
        help="directory for artifact-fault files (default: a temp dir)",
    )


def _fuzz_args(p: argparse.ArgumentParser) -> None:
    from repro.fuzz.mdlgen import PROFILES

    p.description = (
        "Generate seed-derived machine descriptions and push each through"
        " lint, the three query representations, reduce, certify, and the"
        " modulo scheduler, cross-checking every stage differentially."
        "  Every fourth run additionally executes a composed multi-fault"
        " chaos plan.  The report is byte-identical across repeated runs"
        " of the same campaign.  Exits 1 when any run produced a bug"
        " verdict."
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument(
        "--runs", type=int, default=20,
        help="number of generated machines (default: 20)",
    )
    p.add_argument(
        "--profile",
        default="mixed",
        choices=tuple(sorted(PROFILES)),
        help="generator profile (default: mixed)",
    )
    p.add_argument(
        "--budget", type=int, metavar="UNITS",
        help="work-unit budget per oracle pipeline stage (exceeded stages"
        " become handled verdicts, not bugs)",
    )
    p.add_argument(
        "--shrink", action="store_true",
        help="minimize every bug to a local-minimum repro machine",
    )
    p.add_argument(
        "--bundles", metavar="DIR",
        help="with --shrink: write checksummed repro bundles under DIR",
    )
    p.add_argument(
        "--plans-every", type=int, default=4, metavar="N",
        help="run a composed chaos plan every N-th run (0 disables;"
        " default: 4)",
    )
    p.add_argument(
        "--out", metavar="FILE",
        help="write the campaign report as a checksummed JSON artifact",
    )


def _runs_args(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Query the persistent run registry that --runlog (or"
        " REPRO_RUNLOG) populates: list and inspect records, gate one run"
        " against another with the bench comparator's policy, detect"
        " work/quality regressions over the longitudinal series with a"
        " seeded changepoint test, expire old records, and export the"
        " registry (or a metrics JSON) as an OpenMetrics scrape.  See"
        " docs/runs.md."
    )


def _runs_tail_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="only the newest N records (default: all)",
    )


def _runs_show_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("seq", type=int, help="record sequence number")


def _runs_diff_args(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Compare two registry records' work units and schedule quality"
        " under the bench comparator's two-tier policy: deterministic work"
        " gates hard beyond --work-ratio above the --min-units floor,"
        " quality gates at --quality-ratio (loops_at_mii"
        " bigger-is-better), and a loops/mii_total mismatch marks the pair"
        " incomparable."
    )
    p.add_argument("base", type=int, help="baseline record seq")
    p.add_argument("new", type=int, help="candidate record seq")


def _runs_trend_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metric", default="units.check", metavar="NAME",
        help="dotted metric: units.<currency>, calls.<currency>,"
        " quality.<key>, total_units, duration_s (default: units.check)",
    )
    p.add_argument(
        "--window", type=int, default=0, metavar="N",
        help="analyze only the trailing N records (default: all)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="permutation-test seed (default: 0)",
    )
    p.add_argument(
        "--alpha", type=float, default=0.05,
        help="significance level (default: 0.05)",
    )
    p.add_argument(
        "--permutations", type=int, default=200,
        help="permutation count (default: 200)",
    )
    p.add_argument(
        "--min-ratio", type=float, default=1.02,
        help="ignore level shifts smaller than this ratio (default: 1.02)",
    )


def _runs_gc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--keep", type=int, required=True, metavar="N",
        help="keep only the newest N records",
    )
    p.add_argument(
        "--prune-corrupt", action="store_true",
        help="also delete corrupt records regardless of age",
    )


def _runs_metrics_args(p: argparse.ArgumentParser) -> None:
    _runs_tail_arg(p)
    p.add_argument(
        "--from-metrics", metavar="FILE",
        help="render a repro-obs-metrics JSON document instead of the"
        " registry",
    )
    p.add_argument(
        "-o", "--out", default="-", metavar="FILE",
        help="write the exposition to FILE (default: stdout)",
    )


# ----------------------------------------------------------------------
# The command table and its runner.
# ----------------------------------------------------------------------
class Command(NamedTuple):
    """One row of the command table: everything the runner needs.

    ``flags`` lists the shared flag groups the command takes, and
    ``defaults`` its per-command defaults for them.  ``record`` commands
    take ``--runlog`` and append a registry record.  ``meta`` lists the
    trace-meta keys of the commands the runner traces (each read from
    the handler's noted fields, ``kernel`` from ``workload``, else from
    the arguments); ``None`` means the runner does not trace (``profile``
    runs its own tracer).
    """

    name: str
    help: str
    handler: Optional[Callable[[argparse.Namespace, Run], int]] = None
    arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None
    flags: Tuple[Callable[[argparse.ArgumentParser], None], ...] = ()
    defaults: Tuple[Tuple[str, object], ...] = ()
    record: bool = False
    meta: Optional[Tuple[str, ...]] = None
    subcommands: Tuple["Command", ...] = ()


_RUNS = (_runlog_flag, _format_flag)
_SUITE_DEFAULTS = (("loops", 8), ("representation", "discrete"))

COMMANDS: Tuple[Command, ...] = (
    Command("reduce", "reduce a machine description", _cmd_reduce,
            _reduce_args, (_objective_flag, _observe_flags, _budget_flags,
                           _fallback_flag),
            record=True, meta=("machine", "objective", "word_cycles")),
    Command("verify", "compare two descriptions", _cmd_verify, _pair_args,
            defaults=(("limit", 8),)),
    Command("certify", "issue or check a preservation certificate",
            _cmd_certify, _certify_args, (_format_flag,), record=True),
    Command("stats", "print description metrics", _cmd_stats,
            _word_table_args),
    Command("show", "dump a machine as MDL", _cmd_show, _machine_arg),
    Command("table", "render the Tables 1-4 metrics for a machine",
            _cmd_table, _word_table_args),
    Command("report", "machine / reduction report", _cmd_report,
            _report_args, (_objective_flag,)),
    Command("diff", "scheduling-constraint diff", _cmd_diff, _pair_args,
            defaults=(("limit", 20),)),
    Command("expand", "print a software pipeline", _cmd_expand,
            _expand_args),
    Command("automata", "automata size report", _cmd_automata,
            _automata_args, (_observe_flags,), meta=("machine", "factor")),
    Command("profile", "reduce + schedule under tracing; time/work breakdown",
            _cmd_profile, _profile_args,
            (_suite_flags, _objective_flag, _observe_flags), _SUITE_DEFAULTS,
            record=True),
    Command("bench", "benchmark observatory: run / compare / report",
            arguments=_bench_args, subcommands=(
        Command("run", "run the benchmark matrix and record a result",
                _cmd_bench_run, _bench_run_args,
                (_format_flag, _budget_flags), record=True),
        Command("compare", "gate a candidate result against a baseline"
                " (exit 1 on regression)", _cmd_bench_compare,
                _bench_compare_args, (_compare_flags, _format_flag)),
        Command("report", "render a stored benchmark result",
                _cmd_bench_report, _bench_report_args, (_format_flag,)),
    )),
    Command("lint", "static-analysis audit (machine plane or --code plane)",
            _cmd_lint, _lint_args, (_format_flag,)),
    Command("schedule", "run the modulo scheduler", _cmd_schedule,
            _schedule_args, (_suite_flags, _observe_flags, _budget_flags,
                             _fallback_flag),
            (("loops", 20), ("representation", "discrete")), record=True,
            meta=("machine", "representation", "kernel")),
    Command("explain",
            "scheduling provenance: MII attribution and per-II blame",
            _cmd_explain, _explain_args, (_suite_flags, _observe_flags),
            _SUITE_DEFAULTS, record=True,
            meta=("machine", "representation", "kernel")),
    Command("chaos",
            "deterministic fault injection against the resilience layer",
            _cmd_chaos, _chaos_args, (_budget_flags, _observe_flags),
            record=True, meta=("machine", "seed")),
    Command("fuzz", "seeded fuzz campaign through the differential pipeline"
            " oracle", _cmd_fuzz, _fuzz_args, (_observe_flags,), record=True,
            meta=("seed", "profile")),
    Command("runs", "run registry: list / show / diff / trend / gc / metrics",
            arguments=_runs_args, subcommands=(
        Command("list", "list registry records", _cmd_runs_list,
                _runs_tail_arg, _RUNS),
        Command("show", "print one record as JSON", _cmd_runs_show,
                _runs_show_args, _RUNS),
        Command("diff", "gate one record against another (exit 1 on"
                " regression)", _cmd_runs_diff, _runs_diff_args,
                (_compare_flags,) + _RUNS),
        Command("trend", "seeded changepoint detection over a metric series"
                " (exit 1 on regression)", _cmd_runs_trend,
                _runs_trend_args, _RUNS),
        Command("gc", "expire old registry records", _cmd_runs_gc,
                _runs_gc_args, _RUNS),
        Command("metrics", "export the registry (or a metrics JSON) as"
                " OpenMetrics", _cmd_runs_metrics, _runs_metrics_args, _RUNS),
    )),
)

#: Exit code -> registry outcome label (see docs/runs.md).
_OUTCOME_LABELS = {
    0: "ok",
    1: "fail",
    2: "error",
    3: "budget-exceeded",
    130: "interrupted",
    141: "interrupted",
}


def _add_commands(
    parser: argparse.ArgumentParser,
    rows: Tuple[Command, ...],
    dest: str,
    named: Optional[str] = None,
) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for row in rows:
        p = sub.add_parser(row.name, help=row.help)
        if named is not None and row.name != named:
            continue
        p.set_defaults(**dict(row.defaults))
        if row.arguments is not None:
            row.arguments(p)
        if row.subcommands:
            _add_commands(p, row.subcommands, row.name + "_command")
        for group in row.flags + ((_runlog_flag,) if row.record else ()):
            group(p)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, with every command's arguments."""
    return _parser()


def _parser(named: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser; with ``named``, only that command gets its arguments.

    Every command is still listed with its help string, but parsing then
    imports only what the named command's choices need.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reduced multipipeline machine descriptions "
        "(Eichenberger & Davidson, PLDI 1996)",
    )
    _add_commands(parser, COMMANDS, "command", named)
    return parser


def _resolve(args: argparse.Namespace) -> Tuple[Command, str]:
    """The table row ``args`` selected and its registry label."""
    rows, dest, path = COMMANDS, "command", []
    while True:
        row = next(r for r in rows if r.name == getattr(args, dest))
        path.append(row.name)
        if not row.subcommands:
            return row, " ".join(path)
        rows, dest = row.subcommands, row.name + "_command"


def _execute(row: Command, args: argparse.Namespace, run: Run) -> int:
    """Run the handler, traced when ``--trace``/``--metrics`` ask.

    An active run recorder also forces tracing on — the registry record
    needs the work-counter snapshot — but with the runlog off the
    untraced zero-overhead path is untouched.
    """
    if row.meta is None or (
        not args.trace and not args.metrics and run.recorder is None
    ):
        return row.handler(args, run)
    from repro import obs

    tracer = obs.Tracer(trace_queries=bool(args.trace))
    with obs.tracing(tracer):
        # With ``--metrics -`` stdout carries the JSON document alone;
        # the command's human-readable report moves to stderr.
        with (
            contextlib.redirect_stdout(sys.stderr) if args.metrics == "-"
            else contextlib.nullcontext()
        ):
            code = row.handler(args, run)
    tracer.meta["command"] = run.command
    for key in row.meta:
        field = "workload" if key == "kernel" else key
        tracer.meta[key] = run.fields.get(field, getattr(args, key, None))
    run.harvest(tracer)
    _export(tracer, args)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    named = next((a for a in argv if not a.startswith("-")), None)
    args = _parser(named).parse_args(argv)
    row, command = _resolve(args)
    run = Run(args, command, row.record)
    try:
        code = _execute(row, args, run)
    except KeyboardInterrupt:
        # Atomic artifact writes guarantee no partial files survive the
        # interrupt; 130 = 128 + SIGINT, the shell convention.
        print("interrupted", file=sys.stderr)
        code = 130
    except BudgetExceeded as exc:
        # Distinct from usage errors (2) and lint/verify findings (1) so
        # callers can retry with a larger budget or --fallback.
        print("budget exceeded: %s" % exc, file=sys.stderr)
        code = 3
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = 2
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro bench report | head`).
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise again; 141 = 128 + SIGPIPE, the shell convention.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 141
    run.finish(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
