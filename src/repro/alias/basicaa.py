"""The basic alias analysis (``BA`` in the paper, LLVM's ``basicaa``).

A stateless collection of heuristics that resolve the majority of easy
queries, mostly by tracking every pointer back to the object it was derived
from:

* pointers rooted at *different* allocation sites (``alloca``, ``malloc``,
  globals) never alias;
* a function-local allocation whose address is taken inside the function
  never aliases an incoming pointer argument;
* the null pointer aliases nothing;
* two pointers derived from the same base with *constant* offsets alias only
  when their access windows overlap — equal offsets are a must-alias,
  disjoint windows are a no-alias.

The strict-inequality analysis is deliberately complementary to these rules:
BA knows nothing about *variable* offsets, which is exactly where the
less-than analysis contributes (Section 3.6 of the paper).

The rules are written once, over the kind of each pointer's underlying
object (:func:`object_kind`) and, for pointers into one object, their
constant offsets and sizes.  :meth:`BasicAliasAnalysis.alias` applies them
to one pair and is the reference; :meth:`BasicAliasAnalysis.alias_column`
walks each pointer back to its object once and answers every pair of
*different* objects with one ``str.translate`` per row, so only pairs that
share an object are decided one by one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.alias.interface import AliasAnalysis
from repro.alias.results import AliasResult, MemoryLocation
from repro.ir.instructions import Alloca, Call, Copy, GetElementPtr, Load, Malloc, Phi
from repro.ir.values import Argument, GlobalVariable, NullPointer, Value


def underlying_object_and_offset(pointer: Value) -> Tuple[Value, Optional[int]]:
    """Walk ``gep`` and ``copy`` chains back to the underlying object.

    Returns the object plus the accumulated constant offset, or ``None`` for
    the offset as soon as a non-constant index is crossed.
    """
    current = pointer
    offset: Optional[int] = 0
    while True:
        if isinstance(current, GetElementPtr):
            index = current.constant_index()
            if offset is not None and index is not None:
                offset += index
            else:
                offset = None
            current = current.base
            continue
        if isinstance(current, Copy):
            current = current.source
            continue
        return current, offset


#: kinds of underlying object, one character each so that a list of kinds
#: is a string ``str.translate`` can map to verdict codes.
NULL, GLOBAL, LOCAL, ESCAPED, OTHER = "ngleo"


def object_kind(value: Value) -> str:
    """null / global / function-local allocation / pointer that came from
    outside the function (argument, load, call result) / anything else."""
    if isinstance(value, NullPointer):
        return NULL
    if isinstance(value, GlobalVariable):
        return GLOBAL
    if isinstance(value, (Alloca, Malloc)):
        return LOCAL
    if isinstance(value, (Argument, Load, Call)):
        return ESCAPED
    return OTHER


def _distinct_objects_code(kind_a: str, kind_b: str) -> str:
    """The verdict code for pointers into two *different* objects."""
    if NULL in (kind_a, kind_b):
        return "N"
    if kind_a in (GLOBAL, LOCAL) and kind_b in (GLOBAL, LOCAL):
        return "N"
    if {kind_a, kind_b} == {LOCAL, ESCAPED}:
        return "N"
    return "M"


#: per row kind, the translation of the other pointers' kinds to verdicts.
_DISTINCT_ROW = {
    kind_a: str.maketrans({kind_b: _distinct_objects_code(kind_a, kind_b)
                           for kind_b in (NULL, GLOBAL, LOCAL, ESCAPED, OTHER)})
    for kind_a in (NULL, GLOBAL, LOCAL, ESCAPED, OTHER)
}


def _same_object_code(fact_a: Tuple[Value, Optional[int], Optional[int]],
                      fact_b: Tuple[Value, Optional[int], Optional[int]]) -> str:
    """The verdict code for two ``(pointer, offset, size)`` into one object."""
    pointer_a, offset_a, size_a = fact_a
    pointer_b, offset_b, size_b = fact_b
    if pointer_a is pointer_b:
        return "U"
    if offset_a is None or offset_b is None:
        return "M"
    if offset_a == offset_b:
        return "U"
    if size_a is None or size_b is None:
        return "M"
    if offset_a + size_a <= offset_b or offset_b + size_b <= offset_a:
        return "N"
    return "P"


class BasicAliasAnalysis(AliasAnalysis):
    """Stateless heuristics in the spirit of LLVM's ``basicaa``."""

    name = "basicaa"

    def alias(self, loc_a: MemoryLocation, loc_b: MemoryLocation) -> AliasResult:
        object_a, offset_a = underlying_object_and_offset(loc_a.pointer)
        object_b, offset_b = underlying_object_and_offset(loc_b.pointer)
        if object_a is object_b:
            code = _same_object_code((loc_a.pointer, offset_a, loc_a.size),
                                     (loc_b.pointer, offset_b, loc_b.size))
        else:
            code = _distinct_objects_code(object_kind(object_a),
                                          object_kind(object_b))
        return AliasResult.from_code(code)

    def alias_column(self, locations: Sequence[MemoryLocation]) -> str:
        facts: List[Tuple[Value, Optional[int], Optional[int]]] = []
        kinds: List[str] = []
        sharing: Dict[Value, List[int]] = {}
        for index, location in enumerate(locations):
            root, offset = underlying_object_and_offset(location.pointer)
            facts.append((location.pointer, offset, location.size))
            kinds.append(object_kind(root))
            sharing.setdefault(root, []).append(index)
        # Per index, the later indices whose pointers share its object.
        peers: Dict[int, List[int]] = {}
        for members in sharing.values():
            for position in range(len(members) - 1):
                peers[members[position]] = members[position + 1:]
        kind_row = "".join(kinds)
        rows: List[str] = []
        for i, kind in enumerate(kinds):
            row = kind_row[i + 1:].translate(_DISTINCT_ROW[kind])
            later = peers.get(i)
            if later:
                cells = list(row)
                fact = facts[i]
                for j in later:
                    cells[j - i - 1] = _same_object_code(fact, facts[j])
                row = "".join(cells)
            rows.append(row)
        return "".join(rows)
