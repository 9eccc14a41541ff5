"""Contention query modules: check / assign / assign&free / free.

Three internal representations of the partial schedule are provided — the
paper's Section 5 pair plus a compiled kernel:

* :class:`DiscreteQueryModule` — per-(resource, cycle) flag and owner
  entries; work is counted per resource usage.
* :class:`BitvectorQueryModule` — one bitvector per cycle, ``k`` packed per
  word; work is counted per non-empty word.
* :class:`CompiledQueryModule` — the whole reserved table as one big
  integer, with per-operation packed masks and pairwise (class x class)
  collision bitsets precompiled from the Step-1 forbidden latency
  matrix; batched window scans (``check_range`` / ``first_free``) cost
  one collision bitset per *live operation class placement*, not one
  table walk per window cycle.
* :class:`BatchQueryModule` — the columnar batch plane over the
  compiled kernel: per-class blocked columns are maintained
  incrementally across assigns/frees as packed-int columns, so any
  window scan is an O(1) column fetch charged to the
  ``batch`` currency, and whole corpora share one compiled kernel via
  :class:`SharedCompilation`.

All support arbitrary placement order, backtracking via ``assign_free``,
negative cycles (dangling block-boundary requirements), and modulo
reservation tables for software pipelining.
"""

from repro.query.alternatives import (
    FIRST_FIT,
    LEAST_USED,
    POLICIES,
    ROUND_ROBIN,
    order_variants,
)
from repro.query.base import (
    BLAME_RESERVED,
    BLAME_SELF,
    Blame,
    ContentionQueryModule,
    ScheduledToken,
)
from repro.query.batch import (
    BatchQueryModule,
    SharedCompilation,
    machine_digest,
)
from repro.query.bitvector import BitvectorQueryModule
from repro.query.compiled import (
    CompiledKernel,
    CompiledQueryModule,
    clear_kernel_cache,
    compiled_kernel,
)
from repro.query.discrete import DiscreteQueryModule
from repro.query.predicated import (
    TRUE,
    PredicatedDiscreteQueryModule,
    PredicateSpace,
)
from repro.query.modulo import (
    ALL_REPRESENTATIONS,
    BATCH,
    BITVECTOR,
    COMPILED,
    DISCRETE,
    REPRESENTATIONS,
    make_query_module,
)
from repro.query.work import (
    ASSIGN,
    ASSIGN_FREE,
    ATTRIBUTE,
    CHECK,
    CHECK_RANGE,
    COMPILE,
    FREE,
    FUNCTIONS,
    WorkCounters,
)

__all__ = [
    "ALL_REPRESENTATIONS",
    "ASSIGN",
    "ATTRIBUTE",
    "BATCH",
    "BatchQueryModule",
    "SharedCompilation",
    "machine_digest",
    "BLAME_RESERVED",
    "BLAME_SELF",
    "Blame",
    "FIRST_FIT",
    "LEAST_USED",
    "POLICIES",
    "ROUND_ROBIN",
    "order_variants",
    "ASSIGN_FREE",
    "BITVECTOR",
    "BitvectorQueryModule",
    "CHECK",
    "CHECK_RANGE",
    "COMPILE",
    "COMPILED",
    "CompiledKernel",
    "CompiledQueryModule",
    "ContentionQueryModule",
    "DISCRETE",
    "DiscreteQueryModule",
    "clear_kernel_cache",
    "compiled_kernel",
    "FREE",
    "FUNCTIONS",
    "REPRESENTATIONS",
    "PredicateSpace",
    "PredicatedDiscreteQueryModule",
    "ScheduledToken",
    "TRUE",
    "WorkCounters",
    "make_query_module",
]
