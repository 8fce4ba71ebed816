"""The abstract alias-analysis interface and the chaining combinator.

Batched queries are answered as *verdict columns*: one
:attr:`AliasResult.code` character per unordered pair ``(i, j)``, ``i < j``,
of a location list, in row-major ``(i, j)`` order.  A chain is the
first-definitive merge of its members' columns (:func:`merge_columns`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.alias.results import AliasResult, MemoryLocation, collect_memory_locations
from repro.ir.function import Function

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.passes.analysis_cache import FunctionAnalysisCache


class AliasAnalysis:
    """Interface of every alias analysis in this project.

    Subclasses implement :meth:`alias`; analyses with a faster batch
    algorithm also override :meth:`alias_column`.  ``prepare_function`` is
    called once per function before queries are issued, which lets analyses
    that need a whole-function (or whole-module) precomputation build their
    data structures lazily.
    """

    name = "alias-analysis"

    #: ``(cache, label)`` once :meth:`memoize_columns` was called.
    _column_memo: Optional[Tuple["FunctionAnalysisCache", str]] = None

    def prepare_function(self, function: Function) -> None:
        """Hook called before queries about ``function`` are made."""

    def alias(self, loc_a: MemoryLocation, loc_b: MemoryLocation) -> AliasResult:
        raise NotImplementedError  # pragma: no cover - interface

    def alias_column(self, locations: Sequence[MemoryLocation]) -> str:
        """The verdict column of ``locations``: one code per unordered pair.

        This default issues :meth:`alias` pair by pair and is the naive
        reference the batched overrides are tested against.
        """
        alias = self.alias
        codes: List[str] = []
        for i, loc_i in enumerate(locations):
            for j in range(i + 1, len(locations)):
                codes.append(alias(loc_i, locations[j]).code)
        return "".join(codes)

    def alias_many(self, locations: Sequence[MemoryLocation]) \
            -> Iterator[Tuple[int, int, AliasResult]]:
        """Yield ``(i, j, verdict)`` for every unordered pair, decoded from
        :meth:`alias_column` (the PDG builder's entry point)."""
        column = self.alias_column(locations)
        from_code = AliasResult.from_code
        position = 0
        count = len(locations)
        for i in range(count):
            for j in range(i + 1, count):
                yield i, j, from_code(column[position])
                position += 1

    def memoize_columns(self, cache: "FunctionAnalysisCache",
                        label: str) -> "AliasAnalysis":
        """Memoize :meth:`function_column` in ``cache`` under ``label``.

        ``label`` must name what the column depends on (the engine uses the
        spec label plus its ``#intra`` mode suffix), since the cache migrates
        and invalidates columns by that label's fingerprint scope.  Returns
        ``self``.
        """
        self._column_memo = (cache, label)
        return self

    def function_column(self, function: Function, size: Optional[int] = 1) -> str:
        """The column of ``function``'s aa-eval location set
        (:func:`~repro.alias.results.collect_memory_locations`).

        With :meth:`memoize_columns` the column is computed at most once per
        function: memoized columns describe the e-SSA form every engine path
        evaluates, so functions not yet converted, and sizes other than 1,
        are computed without the memo.
        """
        memo = self._column_memo
        if memo is None or size != 1 or not getattr(function, "essa_form", False):
            return self._function_column(function, size)
        cache, label = memo
        column = cache.get_column(function, label)
        if column is None:
            column = self._function_column(function, size)
            cache.put_column(function, label, column)
        return column

    def _function_column(self, function: Function, size: Optional[int]) -> str:
        self.prepare_function(function)
        return self.alias_column(collect_memory_locations(function, size))

    # Convenience entry point used by tests and examples.
    def alias_values(self, a, b, size: Optional[int] = 1) -> AliasResult:
        return self.alias(MemoryLocation(a, size), MemoryLocation(b, size))

    def __repr__(self) -> str:
        return "<{} {}>".format(type(self).__name__, self.name)


_TO_RANK = bytes.maketrans(b"MNPU", b"\x00\x01\x02\x03")
_FROM_RANK = bytes.maketrans(b"\x00\x01\x02\x03", b"MNPU")


def merge_columns(earlier: str, later: str) -> str:
    """First-definitive merge: ``later``'s code wherever ``earlier`` is ``M``.

    Runs in C over the whole column: both columns become big integers with
    one byte per pair (``M`` is byte 0), every non-zero byte of ``earlier``
    becomes an ``0xFF`` mask, and the merge is ``earlier | (later & ~mask)``.
    """
    if len(earlier) != len(later):
        raise ValueError("cannot merge verdict columns of {} and {} pairs".format(
            len(earlier), len(later)))
    if "M" not in earlier:
        return earlier
    size = len(earlier)
    first = int.from_bytes(earlier.encode("ascii").translate(_TO_RANK), "big")
    second = int.from_bytes(later.encode("ascii").translate(_TO_RANK), "big")
    # Ranks are below 4, so bit 0 of ``rank | rank >> 1`` is set exactly for
    # the decided bytes; the bit shifted in from the next byte lands in bit 7
    # and is masked off.
    decided = (first | (first >> 1)) & int.from_bytes(b"\x01" * size, "big")
    merged = first | (second & ~(decided * 0xFF))
    return merged.to_bytes(size, "big").translate(_FROM_RANK).decode("ascii")


class AliasAnalysisChain(AliasAnalysis):
    """Combine several analyses: the first definitive answer wins.

    This models the evaluation methodology of the paper, where the authors
    report ``BA``, ``LT``, ``BA + LT`` and ``BA + CF`` — each "+" being a
    chain that asks the basic analysis first and falls back to the other.
    Batched, the chain merges its members' columns with
    :func:`merge_columns`, so memoized member columns (see
    :meth:`AliasAnalysis.memoize_columns`) are reused rather than re-queried;
    members after the point where no pair is left ``MayAlias`` are not asked.
    """

    def __init__(self, analyses: Sequence[AliasAnalysis], name: Optional[str] = None) -> None:
        if not analyses:
            raise ValueError("an alias analysis chain needs at least one analysis")
        self.analyses: List[AliasAnalysis] = list(analyses)
        self.name = name or " + ".join(a.name for a in self.analyses)

    def prepare_function(self, function: Function) -> None:
        for analysis in self.analyses:
            analysis.prepare_function(function)

    def alias(self, loc_a: MemoryLocation, loc_b: MemoryLocation) -> AliasResult:
        result = AliasResult.MAY_ALIAS
        for analysis in self.analyses:
            result = result.merge(analysis.alias(loc_a, loc_b))
            if result is not AliasResult.MAY_ALIAS:
                return result
        return result

    def alias_column(self, locations: Sequence[MemoryLocation]) -> str:
        return self._merge(lambda member: member.alias_column(locations))

    def _function_column(self, function: Function, size: Optional[int]) -> str:
        return self._merge(lambda member: member.function_column(function, size))

    def _merge(self, column_of) -> str:
        merged = column_of(self.analyses[0])
        for analysis in self.analyses[1:]:
            if "M" not in merged:
                break
            merged = merge_columns(merged, column_of(analysis))
        return merged
