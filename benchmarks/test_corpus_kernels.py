"""Corpus-scale batch scheduling: the >=5x check-path work floor.

The corpus driver schedules the whole loop suite against one shared
compiled kernel, riding the columnar batch plane (``batch`` currency)
instead of per-loop per-window scans.  This benchmark pins the PR's
headline claim on the paper-scale suite: at least **5x** fewer
check-path work units (``check`` + ``check_range`` + ``first_free`` +
``batch``) than the PR-5 per-loop compiled path, with *byte-identical*
per-loop ``(II, placements, alternatives)`` signatures — the paper's
constraint-preservation bar applied to an optimization, again.

Besides the ``results/corpus.txt`` table and its machine-readable
``BENCH_corpus.json`` companion, the corpus cells are appended to the
repo-root ``BENCH_runs.json`` headline trajectory (when present) so
``repro bench compare`` and ``repro runs trend`` track them.
"""

import os
import time

from conftest import BENCH_LOOPS

from repro.bench import BenchCase, load_result, save_result
from repro.bench.stats import summarize
from repro.scheduler.corpus import CorpusScheduler
from repro.workloads import loop_suite

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADLINE = os.path.join(REPO_ROOT, "BENCH_runs.json")

#: The scheduler's contention-test currencies.  The per-loop path pays
#: in ``check``/``check_range``/``first_free``; the batch plane pays in
#: ``batch`` — summing all four compares the two paths honestly.
CHECK_PATH = ("check", "check_range", "first_free", "batch")
FLOOR = 5.0


def _check_path_units(work) -> int:
    return int(sum(work.units[fn] for fn in CHECK_PATH))


def _work_map(work):
    merged = {}
    for function, units in work.units.items():
        merged["query.%s.units" % function] = float(units)
    for function, calls in work.calls.items():
        merged["query.%s.calls" % function] = float(calls)
    return merged


def _quality(result):
    done = [o for o in result.outcomes if not o.failed]
    quality = {
        "loops": float(len(result.outcomes)),
        "loops_at_mii": float(sum(1 for o in done if o.ii == o.mii)),
        "ii_total": float(sum(o.ii for o in done)),
        "mii_total": float(sum(o.mii for o in done)),
    }
    quality["mii_gap"] = quality["ii_total"] - quality["mii_total"]
    return quality


def test_corpus_batch_check_path_at_least_5x_cheaper(machines, record):
    machine = machines["cydra5-subset"]
    graphs = loop_suite(BENCH_LOOPS)

    runs, walls = {}, {}
    for mode, representation in (
        ("corpus-batch", "batch"),
        ("corpus-perloop", "compiled"),
    ):
        scheduler = CorpusScheduler(machine, representation=representation)
        start = time.perf_counter()
        runs[mode] = scheduler.schedule_suite(graphs)
        walls[mode] = time.perf_counter() - start

    batch = runs["corpus-batch"]
    perloop = runs["corpus-perloop"]

    # Constraint preservation first: every loop scheduled, and the two
    # paths agree on every loop's (II, placements, alternatives).
    assert batch.failed == 0 and perloop.failed == 0
    assert batch.signatures() == perloop.signatures()

    batch_units = _check_path_units(batch.work)
    perloop_units = _check_path_units(perloop.work)
    assert batch_units > 0
    ratio = perloop_units / batch_units
    assert ratio >= FLOOR, (
        "corpus check-path units: per-loop=%d batch=%d (ratio %.2f < %.1f)"
        % (perloop_units, batch_units, ratio, FLOOR)
    )
    compile_ratio = (
        perloop.work.units["compile"] / batch.work.units["compile"]
    )

    data = {
        "machine": machine.name,
        "loops": len(graphs),
        "floor": FLOOR,
        "check_path_currencies": list(CHECK_PATH),
        "check_path_units": {
            "corpus-batch": batch_units,
            "corpus-perloop": perloop_units,
        },
        "ratio": ratio,
        "compile_units": {
            "corpus-batch": int(batch.work.units["compile"]),
            "corpus-perloop": int(perloop.work.units["compile"]),
        },
        "compile_ratio": compile_ratio,
        "wall_s": walls,
        "signatures_identical": True,
        "work": {mode: _work_map(run.work) for mode, run in runs.items()},
    }
    text = (
        "corpus-scale batch scheduling (%d-loop suite on %s)\n"
        "  check path (check+check_range+first_free+batch units)\n"
        "    per-loop compiled   %10d units   %8.3fs\n"
        "    corpus batch        %10d units   %8.3fs\n"
        "    ratio               %10.2fx  (floor %.1fx)\n"
        "  compile units         %10d -> %d  (%.1fx, shared kernel)\n"
        "  schedules             byte-identical (%d loops, %d at MII)\n"
        % (
            len(graphs), machine.name,
            perloop_units, walls["corpus-perloop"],
            batch_units, walls["corpus-batch"],
            ratio, FLOOR,
            perloop.work.units["compile"], batch.work.units["compile"],
            compile_ratio,
            batch.scheduled,
            int(_quality(batch)["loops_at_mii"]),
        )
    )
    record(
        "corpus", text, data=data,
        meta={"machine": machine.name, "loops": len(graphs)},
    )

    # Append the corpus cells to the repo-root headline trajectory so
    # bench compares and runs trends see the corpus-scale numbers.
    if os.path.exists(HEADLINE):
        headline = load_result(HEADLINE)
        for mode, run in runs.items():
            headline.add_case(BenchCase(
                machine=machine.name,
                representation=mode,
                work=_work_map(run.work),
                wall=summarize([walls[mode]]),
                phases={},
                quality=_quality(run),
            ))
        save_result(HEADLINE, headline)
        reloaded = load_result(HEADLINE)
        assert "%s/corpus-batch" % machine.name in reloaded.cases

