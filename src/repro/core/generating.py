"""Algorithm 1: building the generating set of maximal resources (Step 2).

The generating set is grown by processing one elementary pair at a time
against every resource accumulated so far:

* **Rule 1** — the pair is *fully compatible* with a resource (compatible
  with each of its usages): add the pair's usages to that resource.
* **Rule 2** — the pair is only *partially compatible*: leave the resource
  unchanged and add a new resource consisting of the pair plus every
  compatible usage of the old resource — unless that new resource is just
  the pair itself, in which case it is discarded.
* **Rule 3** — after Rules 1/2, if no current resource holds both usages of
  the pair together, add the pair itself as a new resource.
* **Rule 4** — finally, for each operation whose *only* forbidden latency is
  its zero self-contention, add a single-usage resource.

Theorem 1 (proved in the paper, re-checked by our test-suite) guarantees the
final set (a) never forbids a latency the target machine allows and (b)
contains every maximal resource of the target machine.

``prune_subsets_every`` enables an optimization discussed in DESIGN.md:
dropping a resource that is a subset of another current resource is safe
because any future Rule-1/2 product grown from the subset is dominated by
the product grown from its superset, so no maximal resource is lost.

Internally resources are integer masks.  Rules 1-3 only ever place usages
of elementary pairs in a resource (Rule 1 adds the pair, Rule 2 joins the
pair to part of an existing resource), so those usages are numbered once
and each resource is the set of its usages' bits.  The compatibility
filter of Rules 1/2 is then one AND per resource, and subset pruning a
few ANDs per candidate.  Masks are decoded to frozensets at the public
boundary: the returned list, trace steps and ``BudgetExceeded.partial``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.elementary import (
    Resource,
    Usage,
    elementary_pairs,
    pair_usages,
)
from repro.core.forbidden import ForbiddenLatencyMatrix
from repro.errors import BudgetExceeded
from repro.obs import trace as obs


@dataclass
class RuleApplication:
    """One rule firing while processing an elementary pair (for traces)."""

    rule: int
    target: Optional[Resource]
    result: Optional[Resource]


@dataclass
class TraceStep:
    """Snapshot of the generating set after processing one elementary pair."""

    pair: Resource
    applications: List[RuleApplication] = field(default_factory=list)
    resources: Tuple[Resource, ...] = ()


def popcount(mask: int) -> int:
    """Number of set bits of ``mask`` (``int.bit_count`` needs 3.10)."""
    return bin(mask).count("1")


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _UsageBits:
    """Numbering of usages: each usage owns one bit of a resource mask."""

    def __init__(self) -> None:
        self.usages: List[Usage] = []
        self.masks: Dict[Usage, int] = {}
        self._decoded: Dict[int, Resource] = {}

    def mask(self, usage: Usage) -> int:
        """The single-bit mask of ``usage``, numbering it on first sight."""
        bit = self.masks.get(usage)
        if bit is None:
            bit = self.masks[usage] = 1 << len(self.usages)
            self.usages.append(usage)
        return bit

    def compatible(self, matrix: ForbiddenLatencyMatrix) -> Dict[Usage, int]:
        """Per numbered usage ``(X, x)``, the mask of numbered usages
        ``(B, b)`` compatible with it: ``x - b`` is in ``F[B][X]``."""
        operations = matrix.operations
        result = {}
        for usage in self.usages:
            op_x, cycle_x = usage
            mask = 0
            for op in operations:
                for latency in matrix.latencies(op, op_x):
                    mask |= self.masks.get((op, cycle_x - latency), 0)
            result[usage] = mask
        return result

    def operation_mask(self, op: str) -> int:
        """The mask of every numbered usage of ``op``."""
        return sum(bit for (name, _), bit in self.masks.items() if name == op)

    def decode(self, mask: Optional[int]) -> Optional[Resource]:
        if mask is None:
            return None
        resource = self._decoded.get(mask)
        if resource is None:
            resource = frozenset(self.usages[i] for i in _bits(mask))
            self._decoded[mask] = resource
        return resource

    def decode_all(self, masks: List[int]) -> List[Resource]:
        return [self.decode(mask) for mask in masks]


def _prune_subset_masks(masks: List[int]) -> List[int]:
    """Drop masks contained in another mask of the list.

    Survivors keep their first-seen order and duplicates collapse.  Larger
    masks are visited first, so a mask can only be contained in one that
    is already kept; ``holders`` maps each usage bit to the bitset of kept
    slots holding it, and a mask is contained in a kept one exactly when
    the AND of its bits' holders is non-zero.
    """
    distinct = list(dict.fromkeys(masks))
    holders: Dict[int, int] = {}
    kept = set()
    for mask in sorted(distinct, key=popcount, reverse=True):
        slot = 1 << len(kept)
        containing = slot - 1
        rest = mask
        while rest and containing:
            bit = rest & -rest
            containing &= holders.get(bit, 0)
            rest ^= bit
        if containing:
            continue
        kept.add(mask)
        rest = mask
        while rest:
            bit = rest & -rest
            holders[bit] = holders.get(bit, 0) | slot
            rest ^= bit
    return [mask for mask in distinct if mask in kept]


def build_generating_set(
    matrix: ForbiddenLatencyMatrix,
    prune_subsets_every: Optional[int] = 64,
    trace: Optional[Callable[[TraceStep], None]] = None,
    budget=None,
) -> List[Resource]:
    """Run Algorithm 1 and return the generating set of maximal resources.

    Parameters
    ----------
    matrix:
        Forbidden latency matrix of the target machine.
    prune_subsets_every:
        Drop subset-dominated resources after every N elementary pairs
        (``None`` disables pruning, reproducing the textbook algorithm).
    trace:
        Optional callback receiving a :class:`TraceStep` after each pair —
        used to regenerate the paper's Figure 3.
    budget:
        Optional :class:`repro.resilience.Budget` checked once per
        elementary pair (charged one unit per resource the pair is matched
        against).  :class:`~repro.errors.BudgetExceeded` carries phase
        ``"generating_set"``, the number of pairs processed, and the
        resource list grown so far as its partial result.
    """
    worklist = elementary_pairs(matrix)
    bits = _UsageBits()
    anchored = []
    for pair in worklist:
        u0, u1 = pair_usages(pair)
        anchored.append((u0, u1, bits.mask(u0) | bits.mask(u1)))
    compatible = bits.compatible(matrix)
    decode = bits.decode

    resources: List[int] = []
    tracer = obs.current()
    if tracer is not None:
        tracer.count("reduce.algorithm1.pairs", len(worklist))
    # Rule firings are tallied locally and flushed once, even when the
    # budget runs out part-way.
    rule1 = rule2 = rule3 = rule4 = 0
    subset_pruned = None
    try:
        for processed, pair in enumerate(worklist, start=1):
            if budget is not None:
                try:
                    budget.checkpoint(
                        "generating_set",
                        units=1 + len(resources),
                        progress="%d/%d pairs" % (processed - 1, len(worklist)),
                    )
                except BudgetExceeded as exc:
                    exc.partial = bits.decode_all(resources)
                    raise
            u0, u1, pair_mask = anchored[processed - 1]
            # Usages compatible with BOTH usages of the pair.
            allowed = compatible[u0] & compatible[u1]
            applications = [] if trace is not None else None
            found_together = False
            merges: List[int] = []
            additions: List[int] = []
            for index, current in enumerate(resources):
                common = current & allowed
                if common == current:
                    # Rule 1: fully compatible -> merge the pair in.
                    merged = current | pair_mask
                    resources[index] = merged
                    merges.append(merged)
                    found_together = True
                    rule1 += 1
                    if applications is not None:
                        applications.append((1, current, merged))
                else:
                    # Rule 2: partially compatible -> candidate new resource.
                    candidate = pair_mask | common
                    if candidate != pair_mask:
                        additions.append(candidate)
                        found_together = True
                        rule2 += 1
                        if applications is not None:
                            applications.append((2, current, candidate))
                    elif applications is not None:
                        applications.append((2, current, None))
            if additions:
                # A candidate holds the pair and lies inside ``allowed``;
                # so does every resource equal to it, and such a resource
                # fired Rule 1 above.  This pair's merges are therefore
                # the only resources a candidate can duplicate.
                existing = set(merges)
                for candidate in additions:
                    if candidate not in existing:
                        existing.add(candidate)
                        resources.append(candidate)
            if not found_together:
                # Rule 3: the pair starts a resource of its own.  No
                # resource equals it: one would have fired Rule 1.
                resources.append(pair_mask)
                rule3 += 1
                if applications is not None:
                    applications.append((3, None, pair_mask))
            if prune_subsets_every and processed % prune_subsets_every == 0:
                before = len(resources)
                resources = _prune_subset_masks(resources)
                subset_pruned = (subset_pruned or 0) + before - len(resources)
            if trace is not None:
                trace(
                    TraceStep(
                        pair=pair,
                        applications=[
                            RuleApplication(rule, decode(target), decode(result))
                            for rule, target, result in applications
                        ],
                        resources=tuple(bits.decode_all(resources)),
                    )
                )

        # Rule 4: operations whose only forbidden latency is 0 in F[X][X].
        for op in matrix.operations:
            self_latencies = matrix.latencies(op, op)
            if self_latencies != frozenset({0}):
                continue
            others = any(
                (matrix.latencies(op, other) or matrix.latencies(other, op))
                for other in matrix.operations
                if other != op
            )
            if others:
                continue
            op_mask = bits.operation_mask(op)
            if not any(resource & op_mask for resource in resources):
                singleton = bits.mask((op, 0))
                resources.append(singleton)
                rule4 += 1
                if trace is not None:
                    trace(
                        TraceStep(
                            pair=decode(singleton),
                            applications=[
                                RuleApplication(4, None, decode(singleton))
                            ],
                            resources=tuple(bits.decode_all(resources)),
                        )
                    )
    finally:
        if tracer is not None:
            for rule, fired in enumerate((rule1, rule2, rule3, rule4), start=1):
                if fired:
                    tracer.count("reduce.algorithm1.rule%d" % rule, fired)
            if subset_pruned is not None:
                tracer.count("reduce.algorithm1.subset_pruned", subset_pruned)

    return bits.decode_all(_prune_subset_masks(resources))
