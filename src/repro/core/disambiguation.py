"""Pointer disambiguation criteria (Definition 3.11 of the paper).

Given the LT sets produced by :class:`repro.core.lessthan.LessThanAnalysis`,
two memory locations are proven disjoint when:

1. one of the pointers is strictly smaller than the other
   (``p1 ∈ LT(p2)`` or ``p2 ∈ LT(p1)``), or
2. both pointers are derived from the same base pointer and one index is
   strictly smaller than the other (``p1 = p + x1``, ``p2 = p + x2`` with
   ``x1 ∈ LT(x2)`` or ``x2 ∈ LT(x1)``), where ``x1`` and ``x2`` are
   variables, not constants.

Because the e-SSA transformation splits live ranges, the same run-time value
may be known under several SSA names (the original, its σ-copies, its
subtraction-split copies).  Copies are identity functions, so the
disambiguator considers the whole equivalence class of names when checking
the criteria — exactly like the original ``sraa`` pass, which resolves
queries through the renamed uses produced by ``vSSA``.

The class also reports *why* a pair was disambiguated, which the examples
and the evaluation harness use to break down the sources of precision.

Performance.  The ``aa-eval`` methodology issues O(n²) queries per function,
and the class-walk behind each query is invariant while the IR is unchanged.
The disambiguator therefore memoizes, per value, the canonical name, the
``(base, index)`` decomposition, and the copy-equivalence class together with
the union of the LT sets of its members.  The memoized check

``ordered(a, b)  ⇔  names(b) ∩ LT∪(a) ≠ ∅  or  names(a) ∩ LT∪(b) ≠ ∅``

is set-for-set identical to the seed's pairwise loop, so verdicts are
bit-identical; only the cost per query changes.  A whole batch is answered
as a *reason column* (:meth:`PointerDisambiguator.reason_column`) that
inverts the check: it looks up which pointers own each member of a LT∪
instead of testing every pair.  Pass ``memoize=False`` to
get the original recompute-per-query behaviour (the throughput benchmark
uses it as the baseline), and call :meth:`PointerDisambiguator.invalidate`
after mutating the IR.
"""

from __future__ import annotations

import enum
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.api.config import resolved_class_limit
from repro.core.lessthan.analysis import LessThanAnalysis
from repro.ir.instructions import Copy, GetElementPtr, Instruction
from repro.ir.values import Argument, ConstantInt, Value
from repro.obs import TRACER
from repro.util.worklist import SolverInfo


class DisambiguationReason(enum.Enum):
    """Which criterion of Definition 3.11 proved a pair disjoint."""

    NONE = "none"
    POINTERS_ORDERED = "pointers-ordered"       # criterion 1
    INDICES_ORDERED = "indices-ordered"         # criterion 2

    def __bool__(self) -> bool:
        return self is not DisambiguationReason.NONE


#: the one-character encoding of each reason in a reason column.
REASON_CODES = {
    DisambiguationReason.NONE: "-",
    DisambiguationReason.POINTERS_ORDERED: "p",
    DisambiguationReason.INDICES_ORDERED: "i",
}
_REASON_OF_CODE = {code: reason for reason, code in REASON_CODES.items()}
_VERDICT_OF_REASON = str.maketrans({"-": "M", "p": "N", "i": "N"})
_NONE, _ORDERED, _INDEXED = (ord(code) for code in "-pi")


def _mark_ordered(column: bytearray, row_base: List[int], members: Iterable[int],
                  classes, code: int) -> None:
    """Mark ``code`` on every still-unmarked pair of ``members`` whose
    classes are ordered: one side's names meet the other side's LT∪."""
    owners: Dict[Value, List[int]] = {}
    for k in members:
        for name in classes[k][0]:
            owners.setdefault(name, []).append(k)
    owned = frozenset(owners)
    for k in members:
        for name in classes[k][1] & owned:
            for m in owners[name]:
                if m == k:
                    continue
                position = row_base[k] + m if k < m else row_base[m] + k
                if column[position] == _NONE:
                    column[position] = code


class DisambiguationStatistics:
    """Counters the evaluation harness reads back after a query batch.

    ``truncated_classes`` counts equivalence classes that exceeded the
    traversal limit (the members kept are chosen deterministically, but
    precision may be lost); ``largest_class`` records the biggest class seen
    before truncation.  ``solver`` carries the fixed-point solver counters
    (:class:`~repro.util.worklist.SolverInfo`) of the analyses behind the
    verdicts, so they survive the engine's shard/merge path.
    """

    def __init__(self) -> None:
        self.queries = 0
        self.truncated_classes = 0
        self.largest_class = 0
        self.memoized_values = 0
        self.solver = SolverInfo()

    def record_class(self, size: int, truncated: bool) -> None:
        self.largest_class = max(self.largest_class, size)
        if truncated:
            self.truncated_classes += 1

    def merge(self, other: "DisambiguationStatistics") -> "DisambiguationStatistics":
        """Lossless aggregation of per-shard statistics on the coordinator.

        Counters sum; ``largest_class`` is a maximum, so the merged value is
        the maximum over shards — exactly what a single-process run over the
        union of the shards would have recorded.  Solver counters merge
        losslessly too, which is what keeps ``repro stats`` totals identical
        between serial and multi-worker runs.
        """
        merged = DisambiguationStatistics()
        merged.queries = self.queries + other.queries
        merged.truncated_classes = self.truncated_classes + other.truncated_classes
        merged.largest_class = max(self.largest_class, other.largest_class)
        merged.memoized_values = self.memoized_values + other.memoized_values
        merged.solver = self.solver.merge(other.solver)
        return merged

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "DisambiguationStatistics":
        statistics = cls()
        statistics.queries = int(data.get("queries", 0))
        statistics.truncated_classes = int(data.get("truncated_classes", 0))
        statistics.largest_class = int(data.get("largest_class", 0))
        statistics.memoized_values = int(data.get("memoized_values", 0))
        statistics.solver = SolverInfo.from_dict(data.get("solver", {}) or {})
        return statistics

    def as_dict(self) -> Dict[str, int]:
        return {
            "queries": self.queries,
            "truncated_classes": self.truncated_classes,
            "largest_class": self.largest_class,
            "memoized_values": self.memoized_values,
            "solver": self.solver.as_dict(),
        }

    def __repr__(self) -> str:
        return "<DisambiguationStatistics queries={} truncated={} largest={}>".format(
            self.queries, self.truncated_classes, self.largest_class)


def _is_variable(value: Value) -> bool:
    return isinstance(value, (Argument, Instruction)) and not isinstance(value, ConstantInt)


def canonical_value(value: Value) -> Value:
    """Strip copies and zero-offset ``gep``s to reach the canonical name."""
    current = value
    while True:
        if isinstance(current, Copy):
            current = current.source
            continue
        if isinstance(current, GetElementPtr) and current.constant_index() == 0:
            current = current.base
            continue
        return current


def _name_order_key(value: Value) -> Tuple[int, str]:
    """Deterministic, construction-order-independent ordering of SSA names.

    Names are unique within a function, and numeric suffixes (``v2`` < ``v10``)
    sort naturally thanks to the length-first key.
    """
    name = getattr(value, "name", "") or ""
    return (len(name), name)


def equivalent_names(value: Value, limit: Optional[int] = 64,
                     statistics: Optional[DisambiguationStatistics] = None) -> List[Value]:
    """All SSA names denoting the same run-time value as ``value``.

    The set contains the canonical name (copies stripped) plus every copy
    transitively derived from it.  Copies are pure renamings, so every member
    evaluates to the same value whenever it is defined.

    Classes larger than ``limit`` are truncated.  The members kept are chosen
    by a deterministic order on the names themselves (never by uses-list
    order, which varies with IR construction history), the canonical root and
    ``value`` itself are always retained, and the truncation is reported on
    ``statistics`` so callers can see when precision may have been lost.
    """
    root = canonical_value(value)
    names: List[Value] = [root]
    seen: Set[int] = {id(root)}
    index = 0
    while index < len(names):
        current = names[index]
        index += 1
        for user in current.users():
            if isinstance(user, Copy) and user.source is current and id(user) not in seen:
                seen.add(id(user))
                names.append(user)
    if id(value) not in seen:
        names.append(value)
    truncated = limit is not None and len(names) > limit
    if statistics is not None:
        statistics.record_class(len(names), truncated)
    if truncated:
        keep: List[Value] = [root]
        if value is not root and id(value) in {id(n) for n in names}:
            keep.append(value)
        kept_ids = {id(n) for n in keep}
        for name in sorted(names, key=_name_order_key):
            if len(keep) >= limit:
                break
            if id(name) not in kept_ids:
                kept_ids.add(id(name))
                keep.append(name)
        names = keep
    return names


def strip_trivial_geps(pointer: Value) -> Value:
    """Walk through zero-offset ``gep`` instructions to the underlying pointer."""
    current = pointer
    while isinstance(current, GetElementPtr) and current.constant_index() == 0:
        current = current.base
    return current


def decompose_pointer(pointer: Value) -> Tuple[Value, Optional[Value]]:
    """Split a pointer into ``(base, index)`` when it is a derived pointer.

    Copies wrapping a ``gep`` are looked through.  Returns ``(pointer, None)``
    for pointers that are not derived from a base through pointer arithmetic.
    """
    current = pointer
    while isinstance(current, Copy):
        current = current.source
    if isinstance(current, GetElementPtr):
        return current.base, current.index
    return pointer, None


class PointerDisambiguator:
    """Answers "are these two pointers provably different?" questions.

    With ``memoize=True`` (the default) per-value tables are filled on first
    use and reused across batches; :meth:`reason_column` answers a whole
    batch at once.  ``memoize=False`` restores the seed's recompute-per-query
    behaviour.
    """

    def __init__(self, analysis: LessThanAnalysis, memoize: bool = True,
                 class_limit: Optional[int] = None) -> None:
        self.analysis = analysis
        self.memoize = memoize
        # Precedence: explicit argument > active ReproConfig >
        # REPRO_CLASS_LIMIT > default (64).  Pass 0 for "no truncation".
        if class_limit is None:
            class_limit = resolved_class_limit()
        elif class_limit <= 0:
            class_limit = None
        self.class_limit = class_limit
        self.statistics = DisambiguationStatistics()
        # Fold the fixed-point solver counters of the underlying analyses in
        # at construction: the less-than constraint solve plus every
        # per-function range solve.  They ride along with the query counters
        # through the engine's payload/merge path from here on.
        solver = analysis.statistics.solver_info()
        for range_analysis in analysis.ranges.values():
            solver = solver.merge(range_analysis.statistics.solver_info())
        self.statistics.solver = solver
        # Indexed per-value tables (identity-keyed: Values hash by identity).
        self._canonical: Dict[Value, Value] = {}
        self._decomposition: Dict[Value, Tuple[Value, Optional[Value]]] = {}
        self._names: Dict[Value, Tuple[FrozenSet[Value], FrozenSet[Value]]] = {}

    # -- table management -----------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every memoized table (call after mutating the IR)."""
        self._canonical.clear()
        self._decomposition.clear()
        self._names.clear()
        self.statistics.memoized_values = 0

    # -- memoized lookups ----------------------------------------------------------
    def _canonical_of(self, value: Value) -> Value:
        if not self.memoize:
            return canonical_value(value)
        cached = self._canonical.get(value)
        if cached is None:
            cached = canonical_value(value)
            self._canonical[value] = cached
        return cached

    def _decompose(self, pointer: Value) -> Tuple[Value, Optional[Value]]:
        if not self.memoize:
            return decompose_pointer(pointer)
        cached = self._decomposition.get(pointer)
        if cached is None:
            cached = decompose_pointer(pointer)
            self._decomposition[pointer] = cached
        return cached

    def _class_info(self, value: Value) -> Tuple[FrozenSet[Value], FrozenSet[Value]]:
        """``(names, LT∪)``: the equivalence class of ``value`` and the union
        of the LT sets of its members."""
        cached = self._names.get(value)
        if cached is not None:
            return cached
        names = equivalent_names(value, limit=self.class_limit,
                                 statistics=self.statistics)
        lt_union: Set[Value] = set()
        lt_sets = self.analysis.lt_sets
        for name in names:
            lt_union.update(lt_sets.get(name, ()))
        info = (frozenset(names), frozenset(lt_union))
        if self.memoize:
            self._names[value] = info
            self.statistics.memoized_values = len(self._names)
        return info

    # -- helpers ------------------------------------------------------------------------
    def _ordered_with_equivalents(self, a: Value, b: Value) -> bool:
        if not self.memoize:
            # Seed path: recompute the classes and walk every name pair.
            names_a = equivalent_names(a, limit=self.class_limit,
                                       statistics=self.statistics)
            names_b = equivalent_names(b, limit=self.class_limit,
                                       statistics=self.statistics)
            for name_a in names_a:
                for name_b in names_b:
                    if self.analysis.ordered(name_a, name_b):
                        return True
            return False
        names_a, lt_a = self._class_info(a)
        names_b, lt_b = self._class_info(b)
        # ∃ na, nb with na < nb or nb < na  ⇔  the class of one side meets
        # the union of LT sets of the other.
        return not names_b.isdisjoint(lt_a) or not names_a.isdisjoint(lt_b)

    # -- criteria ---------------------------------------------------------------------
    def pointers_ordered(self, p1: Value, p2: Value) -> bool:
        """Criterion 1: ``p1 ∈ LT(p2)`` or ``p2 ∈ LT(p1)`` (modulo copies)."""
        return self._ordered_with_equivalents(p1, p2)

    def indices_ordered(self, p1: Value, p2: Value) -> bool:
        """Criterion 2: same base, and the offsets are strictly ordered variables."""
        base1, index1 = self._decompose(p1)
        base2, index2 = self._decompose(p2)
        if index1 is None or index2 is None:
            return False
        if self._canonical_of(base1) is not self._canonical_of(base2):
            return False
        if not (_is_variable(index1) and _is_variable(index2)):
            # The criterion explicitly requires variables; constant offsets
            # are the job of range-based analyses (and of basicaa).
            return False
        return self._ordered_with_equivalents(index1, index2)

    # -- batched entry points ----------------------------------------------------------------
    def reason_column(self, pointers: Sequence[Value]) -> str:
        """One :data:`REASON_CODES` character per unordered pair of
        ``pointers``, in ``(i, j)`` order.

        Reasons are identical to calling :meth:`disambiguate` pair by pair.
        The memoized path never loops over pairs: it indexes which pointers
        carry each SSA name, intersects every pointer's LT∪ with those names
        and marks only the ordered pairs it finds (then the indices-ordered
        pairs inside each same-base group), so its cost follows the number
        of ordered pairs, not n².
        """
        if not TRACER.enabled:
            return self._reason_column(pointers)
        with TRACER.span("disambiguate.pairs", pointers=len(pointers)):
            return self._reason_column(pointers)

    def no_alias_column(self, pointers: Sequence[Value]) -> str:
        """:meth:`reason_column` as alias verdict codes (``N`` or ``M``)."""
        return self.reason_column(pointers).translate(_VERDICT_OF_REASON)

    def disambiguate_pairs(self, pointers: Sequence[Value]) \
            -> Iterator[Tuple[int, int, DisambiguationReason]]:
        """Yield ``(i, j, reason)`` for every unordered pair of ``pointers``,
        decoded from :meth:`reason_column`."""
        column = self.reason_column(pointers)
        position = 0
        for i in range(len(pointers)):
            for j in range(i + 1, len(pointers)):
                yield i, j, _REASON_OF_CODE[column[position]]
                position += 1

    def _reason_column(self, pointers: Sequence[Value]) -> str:
        count = len(pointers)
        if not self.memoize:
            return "".join(
                REASON_CODES[self.disambiguate(pointers[i], pointers[j])]
                for i in range(count) for j in range(i + 1, count))
        self.statistics.queries += count * (count - 1) // 2
        column = bytearray([_NONE]) * (count * (count - 1) // 2)
        # Pair (i, j) sits at row_base[i] + j.
        row_base = [i * (count - 1) - i * (i - 1) // 2 - i - 1
                    for i in range(count)]
        classes = [self._class_info(pointer) for pointer in pointers]
        _mark_ordered(column, row_base, range(count), classes, _ORDERED)
        # Criterion 2 within each group of variable-index pointers that
        # share a canonical base.
        bases: Dict[Value, List[int]] = {}
        index_classes: Dict[int, Tuple[FrozenSet[Value], FrozenSet[Value]]] = {}
        for k, pointer in enumerate(pointers):
            base, index = self._decompose(pointer)
            if index is not None and _is_variable(index):
                bases.setdefault(self._canonical_of(base), []).append(k)
                index_classes[k] = self._class_info(index)
        for members in bases.values():
            if len(members) > 1:
                _mark_ordered(column, row_base, members, index_classes, _INDEXED)
        # Two names of one canonical value are never disjoint.
        canonical: Dict[Value, List[int]] = {}
        for k, pointer in enumerate(pointers):
            canonical.setdefault(self._canonical_of(pointer), []).append(k)
        for members in canonical.values():
            for position, i in enumerate(members):
                for j in members[position + 1:]:
                    column[row_base[i] + j] = _NONE
        return column.decode("ascii")

    # -- main entry point -----------------------------------------------------------------
    def disambiguate(self, p1: Value, p2: Value) -> DisambiguationReason:
        """Return the criterion proving ``p1`` and ``p2`` disjoint, if any."""
        self.statistics.queries += 1
        if self._canonical_of(p1) is self._canonical_of(p2):
            return DisambiguationReason.NONE
        if self.pointers_ordered(p1, p2):
            return DisambiguationReason.POINTERS_ORDERED
        if self.indices_ordered(p1, p2):
            return DisambiguationReason.INDICES_ORDERED
        return DisambiguationReason.NONE

    def no_alias(self, p1: Value, p2: Value) -> bool:
        return bool(self.disambiguate(p1, p2))
