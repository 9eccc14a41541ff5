"""Modulo reservation tables for software pipelining (paper Section 8).

A modulo schedule issues one loop iteration every II cycles, so an
operation placed at schedule cycle ``t`` occupies resources at cycles
``(t + c) mod II`` of the *Modulo Reservation Table* (Patel & Davidson;
Rau's Iterative Modulo Scheduler).  Both query-module representations
support a ``modulo=`` initiation interval natively; this module provides
the factory the scheduler uses to build them uniformly.
"""

from __future__ import annotations

from typing import Optional

from repro.core.machine import MachineDescription
from repro.obs.instrument import observed_class
from repro.obs.trace import current as _current_tracer
from repro.query.base import ContentionQueryModule
from repro.query.batch import BatchQueryModule
from repro.query.bitvector import BitvectorQueryModule
from repro.query.compiled import CompiledQueryModule
from repro.query.discrete import DiscreteQueryModule

DISCRETE = "discrete"
BITVECTOR = "bitvector"
COMPILED = "compiled"
BATCH = "batch"

#: The representations the CLI offers and ``repro bench`` measures.
REPRESENTATIONS = (DISCRETE, BITVECTOR, COMPILED)

#: Everything :func:`make_query_module` accepts, and what the fuzz
#: oracle's differential stages drive.  The columnar ``batch`` plane is
#: a byte-identical accelerator of ``compiled``.
ALL_REPRESENTATIONS = REPRESENTATIONS + (BATCH,)


def make_query_module(
    machine: MachineDescription,
    representation: str = DISCRETE,
    word_cycles: int = 1,
    modulo: Optional[int] = None,
) -> ContentionQueryModule:
    """Build a contention query module.

    Parameters
    ----------
    machine:
        Machine description (original or reduced).
    representation:
        ``"discrete"``, ``"bitvector"``, ``"compiled"`` (packed big-int
        masks plus pairwise collision bitsets; see
        :mod:`repro.query.compiled`), or ``"batch"`` (the columnar
        batch plane over the compiled kernel; see
        :mod:`repro.query.batch`).
    word_cycles:
        Cycle-bitvectors per word (bitvector representation only;
        ignored by the other representations).
    modulo:
        Initiation interval for a modulo reservation table; ``None`` gives
        an ordinary (scalar) reserved table.

    While an observability tracer is active (:func:`repro.obs.tracing`)
    the *observed* subclass is constructed instead, so every basic
    function call is timed and accounted (see
    :mod:`repro.obs.instrument`).  With tracing disabled the plain class
    is returned — the untraced hot path is untouched.
    """
    if representation == DISCRETE:
        cls = DiscreteQueryModule
    elif representation == BITVECTOR:
        cls = BitvectorQueryModule
    elif representation == COMPILED:
        cls = CompiledQueryModule
    elif representation == BATCH:
        cls = BatchQueryModule
    else:
        raise ValueError(
            "unknown representation %r (expected one of %s)"
            % (representation, ALL_REPRESENTATIONS)
        )
    if _current_tracer() is not None:
        cls = observed_class(cls)
    if representation == BITVECTOR:
        return cls(machine, word_cycles=word_cycles, modulo=modulo)
    return cls(machine, modulo=modulo)
