"""The corpus driver: one shared kernel, a whole loop suite, one pass.

The headline contract is *constraint preservation at corpus scale*: the
batch representation must reproduce the per-loop compiled path's
schedules signature-for-signature while spending strictly less
check-path work and charging ``compile`` once per machine digest.  The
satellite contracts ride along — budget starvation stays loop-local,
the fallback ladder degrades loops without sinking the corpus, and the
multiprocessing fan-out replays the serial schedules exactly.
"""

import pytest

from repro.cli import main
from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.machines import cydra5_subset, example_machine
from repro.obs import trace as obs
from repro.query.compiled import clear_kernel_cache
from repro.query.work import WorkCounters
from repro.resilience.budget import Budget
from repro.resilience.fallback import RUNG_IMS as FALLBACK_RUNG_IMS
from repro.resilience.fallback import FallbackPolicy
from repro.scheduler import corpus as corpus_module
from repro.scheduler.corpus import (
    CorpusScheduler,
    LoopOutcome,
    schedule_signature,
)
from repro.workloads import loop_suite

CHECK_PATH = ("check", "check_range", "first_free", "batch")


def _check_path_units(work: WorkCounters) -> int:
    return int(sum(work.units[fn] for fn in CHECK_PATH))


@pytest.fixture(scope="module")
def suite():
    return loop_suite(40)


@pytest.fixture(scope="module")
def machine():
    return cydra5_subset()


class TestSignatures:
    def test_schedule_signature_is_canonical(self):
        sig = schedule_signature(
            4, {"b": 1, "a": 0}, {"b": "add.1", "a": "add.0"}
        )
        assert sig == (
            4,
            (("a", 0), ("b", 1)),
            (("a", "add.0"), ("b", "add.1")),
        )

    def test_failed_outcome_has_no_signature(self):
        failed = LoopOutcome(name="l", ops=3, error_type="ScheduleError")
        assert failed.failed
        assert failed.signature is None
        served = LoopOutcome(
            name="l", ops=3, ii=2, mii=2, times={"a": 0},
            chosen_opcodes={}, rung=corpus_module.RUNG_IMS,
        )
        assert not served.failed and not served.degraded
        assert served.signature == (2, (("a", 0),), ())


def test_rung_ims_pin_matches_fallback_module():
    """The constant inlined to break the import cycle must not drift."""
    assert corpus_module.RUNG_IMS == FALLBACK_RUNG_IMS


class TestBatchMatchesPerLoop:
    def test_batch_replays_compiled_schedules_for_less_work(
        self, machine, suite
    ):
        batch = CorpusScheduler(machine).schedule_suite(suite)
        perloop = CorpusScheduler(
            machine, representation="compiled"
        ).schedule_suite(suite)

        assert batch.representation == "batch"
        assert batch.failed == 0 and perloop.failed == 0
        assert batch.signatures() == perloop.signatures()

        assert _check_path_units(batch.work) < _check_path_units(
            perloop.work
        )
        # One kernel build for the whole corpus vs one per II attempt.
        assert batch.work.units["compile"] < perloop.work.units["compile"]

    def test_digest_is_the_machine_content_hash(self, machine, suite):
        result = CorpusScheduler(machine).schedule_suite(suite[:2])
        again = CorpusScheduler(cydra5_subset()).schedule_suite(suite[:2])
        assert result.digest == again.digest
        other = CorpusScheduler(example_machine()).schedule_suite([])
        assert other.digest != result.digest


class TestSchedulerReuse:
    @pytest.mark.parametrize(
        "representation, fallback",
        (("batch", False), ("discrete", False),
         ("batch", True), ("discrete", True)),
        ids=("batch", "discrete", "batch-fallback", "discrete-fallback"),
    )
    def test_serial_run_builds_the_forbidden_matrix_once(
        self, machine, suite, monkeypatch, representation, fallback
    ):
        """One IMS per run: the matrix is not rebuilt for every loop, nor
        for every rung of the fallback ladder."""
        graphs = suite[:6]
        build = ForbiddenLatencyMatrix.from_machine
        built = []

        def counting(description, *args, **kwargs):
            built.append(description.name)
            return build(description, *args, **kwargs)

        # A cold kernel cache, so batch mode pays its one build here.
        clear_kernel_cache()
        monkeypatch.setattr(
            ForbiddenLatencyMatrix, "from_machine", staticmethod(counting)
        )
        result = CorpusScheduler(
            machine,
            representation=representation,
            policy=FallbackPolicy() if fallback else None,
        ).schedule_suite(graphs)
        assert result.failed == 0
        assert built == [machine.name]


class TestBudget:
    def test_starvation_is_loop_local(self, machine, suite):
        graphs = suite[:8]
        # Room for the first loops (the 8-loop suite costs ~3000 units)
        # but not the whole corpus: starvation must land mid-suite.
        budget = Budget(max_units=2000, label="corpus-test")
        result = CorpusScheduler(machine).schedule_suite(
            graphs, budget=budget
        )
        assert len(result.outcomes) == len(graphs)
        assert result.outcomes[0].failed is False
        assert result.failed > 0
        for outcome in result.outcomes:
            if outcome.failed:
                assert outcome.error_type == "BudgetExceeded"
                assert outcome.signature is None

    def test_generous_budget_changes_nothing(self, machine, suite):
        graphs = suite[:6]
        free = CorpusScheduler(machine).schedule_suite(graphs)
        bounded = CorpusScheduler(machine).schedule_suite(
            graphs, budget=Budget(max_units=10_000_000)
        )
        assert bounded.signatures() == free.signatures()

    def test_budget_forces_serial_execution(self, machine, suite):
        graphs = suite[:4]
        with obs.tracing() as tracer:
            result = CorpusScheduler(
                machine, processes=2
            ).schedule_suite(graphs, budget=Budget(max_units=10_000_000))
        assert result.failed == 0
        assert tracer.metrics.counters["corpus.serialized_for_budget"] == 1


class TestFallbackLadder:
    def test_policy_serves_every_loop_on_the_ims_rung(
        self, machine, suite
    ):
        graphs = suite[:6]
        policy = FallbackPolicy()
        result = CorpusScheduler(machine, policy=policy).schedule_suite(
            graphs
        )
        plain = CorpusScheduler(machine).schedule_suite(graphs)
        assert result.failed == 0
        assert result.degraded == 0
        assert all(o.rung == FALLBACK_RUNG_IMS for o in result.outcomes)
        assert result.signatures() == plain.signatures()


class TestParallel:
    def test_parallel_replays_serial_schedules_and_query_work(
        self, machine, suite
    ):
        graphs = suite[:8]
        serial = CorpusScheduler(machine).schedule_suite(graphs)
        parallel = CorpusScheduler(machine, processes=2).schedule_suite(
            graphs
        )
        assert parallel.failed == 0
        assert parallel.signatures() == serial.signatures()
        # Workers re-derive per-II folds, so only the compile currency
        # may legitimately differ between serial and parallel runs.
        for currency, units in serial.work.units.items():
            if currency == "compile":
                continue
            assert parallel.work.units[currency] == units, currency
        assert dict(parallel.work.calls) == dict(serial.work.calls)


class TestCli:
    def test_schedule_corpus_exits_clean(self, capsys):
        assert main(
            ["schedule", "cydra5-subset", "--corpus", "--loops", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "corpus: 6 scheduled" in out
        assert "batch plane:" in out

    def test_schedule_corpus_perloop_representation(self, capsys):
        assert main(
            [
                "schedule", "cydra5-subset", "--corpus", "--loops", "3",
                "--representation", "compiled",
            ]
        ) == 0
        assert "corpus: 3 scheduled" in capsys.readouterr().out
