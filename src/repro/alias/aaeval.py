"""The alias-analysis evaluator (LLVM's ``aa-eval`` pass).

The evaluation methodology of the paper is built on ``aa-eval``: within each
function, every pair of pointer values is queried and the analysis is scored
by the fraction of pairs it reports as NoAlias.  This module reimplements
that harness: it collects the pointer values of a function, answers every
unordered pair, and aggregates verdict counts per function, per module and
per benchmark suite.

Each analysis answers a function as one *verdict column*
(:meth:`~repro.alias.interface.AliasAnalysis.function_column`): a string of
:attr:`AliasResult.code` characters in ``(i, j)`` pair order.  Counts are
``str.count`` over the column, and the column itself is the verdict stream
the execution engine persists and compares.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.alias.interface import AliasAnalysis
from repro.alias.results import (  # noqa: F401 - re-exported
    AliasResult,
    MemoryLocation,
    collect_memory_locations,
    collect_pointer_values,
)
from repro.ir.function import Function
from repro.ir.module import Module


class AliasEvaluation:
    """Aggregated verdict counts for a set of alias queries."""

    def __init__(self) -> None:
        self.no_alias = 0
        self.may_alias = 0
        self.partial_alias = 0
        self.must_alias = 0

    @property
    def total_queries(self) -> int:
        return self.no_alias + self.may_alias + self.partial_alias + self.must_alias

    @property
    def no_alias_ratio(self) -> float:
        total = self.total_queries
        return self.no_alias / total if total else 0.0

    def record(self, result: AliasResult) -> None:
        if result is AliasResult.NO_ALIAS:
            self.no_alias += 1
        elif result is AliasResult.MUST_ALIAS:
            self.must_alias += 1
        elif result is AliasResult.PARTIAL_ALIAS:
            self.partial_alias += 1
        else:
            self.may_alias += 1

    def merge(self, other: "AliasEvaluation") -> "AliasEvaluation":
        merged = AliasEvaluation()
        merged.no_alias = self.no_alias + other.no_alias
        merged.may_alias = self.may_alias + other.may_alias
        merged.partial_alias = self.partial_alias + other.partial_alias
        merged.must_alias = self.must_alias + other.must_alias
        return merged

    @classmethod
    def from_codes(cls, codes: str) -> "AliasEvaluation":
        """Count the verdicts of a verdict column."""
        evaluation = cls()
        evaluation.no_alias = codes.count("N")
        evaluation.may_alias = codes.count("M")
        evaluation.partial_alias = codes.count("P")
        evaluation.must_alias = codes.count("U")
        return evaluation

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "AliasEvaluation":
        """Rebuild an evaluation from :meth:`as_dict` output.

        Only the four verdict counters are read; derived fields (``queries``,
        ``no_alias_ratio``) are recomputed.  This is the deserialization hook
        of the cross-process engine, whose workers ship verdict counts between
        processes as plain dictionaries.
        """
        evaluation = cls()
        evaluation.no_alias = int(data.get("no_alias", 0))
        evaluation.may_alias = int(data.get("may_alias", 0))
        evaluation.partial_alias = int(data.get("partial_alias", 0))
        evaluation.must_alias = int(data.get("must_alias", 0))
        return evaluation

    def as_dict(self) -> Dict[str, float]:
        return {
            "queries": self.total_queries,
            "no_alias": self.no_alias,
            "may_alias": self.may_alias,
            "partial_alias": self.partial_alias,
            "must_alias": self.must_alias,
            "no_alias_ratio": self.no_alias_ratio,
        }

    def __repr__(self) -> str:
        return "<AliasEvaluation queries={} no-alias={} ({:.1%})>".format(
            self.total_queries, self.no_alias, self.no_alias_ratio)


def alias_many(analysis: AliasAnalysis,
               locations: Sequence[MemoryLocation]) -> AliasEvaluation:
    """Aggregate the verdicts of every unordered pair of ``locations``."""
    return AliasEvaluation.from_codes(analysis.alias_column(locations))


def evaluate_function_verdicts(function: Function, analysis: AliasAnalysis,
                               size: Optional[int] = 1) -> "Tuple[AliasEvaluation, str]":
    """Like :func:`evaluate_function`, but also return the verdict column.

    Returns ``(evaluation, codes)`` where ``codes`` is one
    :attr:`AliasResult.code` character per unordered pair in ``(i, j)``
    iteration order.  The code string is what the cross-process engine
    persists and compares to certify that pooled and store-warmed runs are
    bit-identical to the serial path.
    """
    codes = analysis.function_column(function, size)
    return AliasEvaluation.from_codes(codes), codes


def evaluate_function(function: Function, analysis: AliasAnalysis,
                      size: Optional[int] = 1) -> AliasEvaluation:
    """Query every unordered pair of pointer values of ``function``."""
    return AliasEvaluation.from_codes(analysis.function_column(function, size))


def resolution_counts(label: str,
                      evaluations: Mapping[str, AliasEvaluation]) -> Dict[str, int]:
    """Where the pairs of spec ``label`` got decided, from verdict counts.

    For a chain ``m1+m2+…`` the pairs member ``m_t`` decided are the
    ``MayAlias`` pairs of the prefix chain ``m1+…+m_{t-1}`` that
    ``m1+…+m_t`` no longer leaves ``MayAlias`` — which needs only the
    ``MayAlias`` counts of the prefix labels present in ``evaluations``.
    Members whose prefix label is absent are reported together under their
    joined name.  ``unresolved`` counts the pairs the whole spec leaves
    ``MayAlias``.  Returns ``{member or joined members: pairs,
    "unresolved": pairs}``.
    """
    members = label.split("+")
    remaining = evaluations[label].total_queries
    counts: Dict[str, int] = {}
    start = 0
    for end in range(1, len(members) + 1):
        prefix = "+".join(members[:end])
        if end < len(members) and prefix not in evaluations:
            continue
        may_alias = evaluations[prefix].may_alias
        counts["+".join(members[start:end])] = remaining - may_alias
        remaining = may_alias
        start = end
    counts["unresolved"] = remaining
    return counts


def evaluate_module(module: Module, analysis: AliasAnalysis,
                    size: Optional[int] = 1) -> AliasEvaluation:
    """Evaluate every defined function of ``module`` and sum the counts."""
    evaluation = AliasEvaluation()
    for function in module.defined_functions():
        evaluation = evaluation.merge(evaluate_function(function, analysis, size))
    return evaluation


class AliasEvaluator:
    """Convenience wrapper comparing several analyses on the same modules.

    Used by the benchmark harness: feed it named analyses, call
    :meth:`evaluate` per module (benchmark program), and read back one row
    per (module, analysis) pair.
    """

    def __init__(self, analyses: Dict[str, AliasAnalysis]) -> None:
        self.analyses = dict(analyses)
        self.rows: List[Dict[str, object]] = []

    def evaluate(self, name: str, module: Module) -> Dict[str, AliasEvaluation]:
        results: Dict[str, AliasEvaluation] = {}
        for label, analysis in self.analyses.items():
            results[label] = evaluate_module(module, analysis)
        row: Dict[str, object] = {"benchmark": name}
        for label, evaluation in results.items():
            row["{}_no_alias".format(label)] = evaluation.no_alias
            row["{}_ratio".format(label)] = evaluation.no_alias_ratio
        first = next(iter(results.values()))
        row["queries"] = first.total_queries
        self.rows.append(row)
        return results
