"""Memoization of per-function analysis state across alias queries.

The paper's evaluation (``aa-eval``) asks O(n²) queries per function, and
every configuration of the harness (``LT``, ``BA + LT``, ``BA + CF`` ...)
re-runs the same sub-analyses on the same, unchanged functions: two
:class:`~repro.rangeanalysis.analysis.RangeAnalysis` passes per
:class:`~repro.core.lessthan.analysis.LessThanAnalysis`, one e-SSA
conversion, one constraint solve.  :class:`FunctionAnalysisCache` memoizes
that invariant state so no analysis is ever computed twice on an unchanged
function:

* e-SSA conversion status (with the pre-conversion range analysis folded in),
* the post-conversion :class:`RangeAnalysis` per function,
* :class:`LessThanAnalysis` per function and per module (keyed on the
  interprocedural flag),
* the :class:`~repro.core.disambiguation.PointerDisambiguator` per analysis,
  so its per-value tables survive across evaluation rounds,
* evaluation payloads per (function, spec label) and verdict columns per
  (function, member label), so a chain such as ``basicaa+lt`` merges the
  ``basicaa`` and ``lt`` columns instead of re-querying them.

Invalidation is explicit: after mutating a function, call
:meth:`FunctionAnalysisCache.invalidate` with it (module-level entries built
on top of it are dropped too).  The cache deliberately does *not* try to
detect mutations — the IR has no version counter — so the contract is the
same as LLVM's analysis manager: whoever transforms the IR invalidates.

``LessThanAnalysis``, ``StrictInequalityAliasAnalysis``, the PDG builder and
the benchmark drivers all accept a cache instance; wiring one object through
a whole evaluation makes repeated module-level ``aa-eval`` hit precomputed
state everywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.module import Module

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.essa.transform import EssaInfo
    from repro.ir.callgraph import ModuleFingerprints
    from repro.rangeanalysis.analysis import RangeAnalysis

# The analysis modules themselves import ``repro.passes.pass_base`` (whose
# package __init__ imports this module), so they are imported lazily inside
# the methods below to keep the import graph acyclic.


class CacheStatistics:
    """Hit/miss counters, for tests, benchmarks and ``repro stats``.

    ``hits``/``misses`` aggregate every lookup; :meth:`record` additionally
    keeps per-kind counters (``essa``, ``ranges``, ``lessthan``,
    ``evaluation``, ...) so the stats surface can show *which* table a cold
    run is missing in.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.by_kind: Dict[str, Dict[str, int]] = {}

    def record(self, kind: str, hit: bool) -> None:
        """Count one lookup of ``kind``, updating the aggregates too."""
        counters = self.by_kind.setdefault(kind, {"hits": 0, "misses": 0})
        if hit:
            self.hits += 1
            counters["hits"] += 1
        else:
            self.misses += 1
            counters["misses"] += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_ratio": self.hit_ratio,
        }

    def __repr__(self) -> str:
        return "<CacheStatistics hits={} misses={} invalidations={}>".format(
            self.hits, self.misses, self.invalidations)


def _module_content_hash(module: Module) -> str:
    """The module's content hash under the engine's addressing convention
    (printed IR minus the name line, so renamed-but-identical modules match)."""
    from repro.engine.store import text_hash
    from repro.engine.worker import module_content_text

    return text_hash(module_content_text(module))


class _ModuleSnapshot:
    """One refresh baseline: the fingerprints and function objects of one
    compile of a module (keyed by module name across recompiles)."""

    __slots__ = ("prints", "functions", "module_hash")

    def __init__(self, prints: "ModuleFingerprints",
                 functions: Dict[str, Function], module_hash: str) -> None:
        self.prints = prints
        self.functions = functions
        self.module_hash = module_hash


class RefreshResult:
    """What :meth:`FunctionAnalysisCache.refresh` decided about one edit."""

    __slots__ = ("dirty", "clean", "removed", "migrated")

    def __init__(self, dirty: List[str], clean: List[str],
                 removed: List[str], migrated: int) -> None:
        #: function names whose own IR changed (or that are new) — their
        #: cached state was dropped and must be recomputed.
        self.dirty = dirty
        #: function names whose own IR is unchanged.
        self.clean = clean
        #: function names present in the previous snapshot only.
        self.removed = removed
        #: evaluation payloads carried over to the new function objects
        #: (verdict columns migrate alongside, uncounted).
        self.migrated = migrated

    def __repr__(self) -> str:
        return "<RefreshResult dirty={} clean={} removed={} migrated={}>".format(
            len(self.dirty), len(self.clean), len(self.removed), self.migrated)


class FunctionAnalysisCache:
    """Memoizes range analysis, e-SSA status and less-than analysis.

    All tables key on object identity (functions and modules hash by
    identity), matching the rest of the code base.  :meth:`refresh` bridges
    identities across recompiles: it diffs call-graph-aware fingerprints
    (:mod:`repro.ir.callgraph`) against the previous snapshot of the same
    module name and migrates still-valid state onto the new objects.
    """

    def __init__(self) -> None:
        self._essa: Dict[Function, EssaInfo] = {}
        self._ranges: Dict[Function, RangeAnalysis] = {}
        self._function_lessthan: Dict[Function, "LessThanAnalysis"] = {}
        self._module_lessthan: Dict[Tuple[Module, bool], "LessThanAnalysis"] = {}
        self._function_disambiguators: Dict[Function, "PointerDisambiguator"] = {}
        self._module_disambiguators: Dict[Tuple[Module, bool], "PointerDisambiguator"] = {}
        self._evaluations: Dict[Tuple[Function, str], object] = {}
        #: per-function label index over ``_evaluations`` so invalidation
        #: touches only that function's entries instead of scanning them all.
        self._function_evaluations: Dict[Function, Set[str]] = {}
        #: verdict columns of alias-analysis members, indexed the same way;
        #: they share the payloads' invalidation and refresh migration.
        self._columns: Dict[Tuple[Function, str], str] = {}
        self._function_columns: Dict[Function, Set[str]] = {}
        #: previous-compile range analyses, consumed by :meth:`ranges` to run
        #: an incremental re-solve instead of a cold one (see ``refresh``).
        self._range_hints: Dict[Function, RangeAnalysis] = {}
        #: the *pre-conversion* range analyses that drove each e-SSA
        #: conversion, kept as next-generation seeds, plus the hints
        #: :meth:`ensure_essa` consumes (the pre/post forms have different
        #: value signatures, so the two hint families never mix).
        self._pre_ranges: Dict[Function, RangeAnalysis] = {}
        self._pre_range_hints: Dict[Function, RangeAnalysis] = {}
        #: refresh baselines by module name.
        self._snapshots: Dict[str, _ModuleSnapshot] = {}
        self.statistics = CacheStatistics()

    # -- e-SSA conversion ---------------------------------------------------------
    def ensure_essa(self, function: Function) -> EssaInfo:
        """Convert ``function`` to e-SSA form once; later calls are hits.

        The conversion mutates the IR, so analyses cached for the
        pre-conversion form are dropped here — this is the one mutation the
        cache itself performs and can therefore track.
        """
        from repro.essa.transform import EssaInfo, convert_to_essa
        from repro.rangeanalysis.analysis import RangeAnalysis

        info = self._essa.get(function)
        if info is not None:
            self.statistics.record("essa", hit=True)
            return info
        self.statistics.record("essa", hit=False)
        if getattr(function, "essa_form", False):
            # Converted outside the cache: nothing to do, record an empty
            # summary so later calls hit.
            info = EssaInfo()
        else:
            pre_ranges = RangeAnalysis(
                function, previous=self._pre_range_hints.pop(function, None))
            self._pre_ranges[function] = pre_ranges
            # Freeze the reuse signatures before the conversion rewrites the
            # IR in place, so the next generation's pre-conversion solve can
            # still match them.
            pre_ranges.snapshot()
            info = convert_to_essa(function, pre_ranges)
            self._drop_function_entries(function)
        self._essa[function] = info
        return info

    # -- range analysis ------------------------------------------------------------
    def ranges(self, function: Function) -> RangeAnalysis:
        """The (memoized) range analysis of ``function`` in its current form."""
        from repro.rangeanalysis.analysis import RangeAnalysis

        cached = self._ranges.get(function)
        if cached is not None:
            self.statistics.record("ranges", hit=True)
            return cached
        self.statistics.record("ranges", hit=False)
        # A hint is the previous compile's finished analysis of (an edit of)
        # this function: the solver copies every component whose structure
        # and external inputs are unchanged, bit-identical to a cold solve.
        analysis = RangeAnalysis(function,
                                 previous=self._range_hints.pop(function, None))
        self._ranges[function] = analysis
        return analysis

    def hint_previous_ranges(self, function: Function,
                             previous: "RangeAnalysis") -> None:
        """Seed the next :meth:`ranges` miss on ``function`` with a previous
        compile's analysis for an incremental re-solve."""
        self._range_hints[function] = previous

    # -- less-than analysis -----------------------------------------------------------
    def lessthan(self, function: Function) -> "LessThanAnalysis":
        """The (memoized) per-function less-than analysis (builds e-SSA)."""
        from repro.core.lessthan.analysis import LessThanAnalysis

        cached = self._function_lessthan.get(function)
        if cached is not None:
            self.statistics.record("lessthan", hit=True)
            return cached
        self.statistics.record("lessthan", hit=False)
        analysis = LessThanAnalysis(function, build_essa=True, cache=self)
        self._function_lessthan[function] = analysis
        return analysis

    def module_lessthan(self, module: Module,
                        interprocedural: bool = True) -> "LessThanAnalysis":
        """The (memoized) whole-module less-than analysis."""
        from repro.core.lessthan.analysis import LessThanAnalysis

        key = (module, interprocedural)
        cached = self._module_lessthan.get(key)
        if cached is not None:
            self.statistics.record("lessthan", hit=True)
            return cached
        self.statistics.record("lessthan", hit=False)
        analysis = LessThanAnalysis(module, build_essa=True,
                                    interprocedural=interprocedural, cache=self)
        self._module_lessthan[key] = analysis
        return analysis

    # -- disambiguators ------------------------------------------------------------
    def function_disambiguator(self, function: Function) -> "PointerDisambiguator":
        """A shared, table-backed disambiguator over :meth:`lessthan`."""
        from repro.core.disambiguation import PointerDisambiguator

        cached = self._function_disambiguators.get(function)
        if cached is not None:
            self.statistics.record("disambiguator", hit=True)
            return cached
        self.statistics.record("disambiguator", hit=False)
        analysis = self.lessthan(function)
        disambiguator = PointerDisambiguator(analysis)
        self._function_disambiguators[function] = disambiguator
        return disambiguator

    def module_disambiguator(self, module: Module,
                             interprocedural: bool = True) -> "PointerDisambiguator":
        """A shared, table-backed disambiguator over :meth:`module_lessthan`."""
        from repro.core.disambiguation import PointerDisambiguator

        key = (module, interprocedural)
        cached = self._module_disambiguators.get(key)
        if cached is not None:
            self.statistics.record("disambiguator", hit=True)
            return cached
        self.statistics.record("disambiguator", hit=False)
        analysis = self.module_lessthan(module, interprocedural)
        disambiguator = PointerDisambiguator(analysis)
        self._module_disambiguators[key] = disambiguator
        return disambiguator

    # -- evaluation payloads -------------------------------------------------------
    def get_evaluation(self, function: Function, label: str) -> Optional[object]:
        """The memoized evaluation payload of ``(function, label)``, if any.

        Payloads are opaque, picklable objects (the execution engine stores
        verdict counters plus the per-pair verdict stream).  They live beside
        the live analysis objects so that a payload warm-loaded from a
        persistent :class:`~repro.engine.store.AnalysisStore` short-circuits
        the whole analysis pipeline: a hit here means neither range analysis,
        e-SSA conversion, the constraint solve nor the O(n²) query loop runs
        for that function.
        """
        cached = self._evaluations.get((function, label))
        self.statistics.record("evaluation", hit=cached is not None)
        return cached

    def put_evaluation(self, function: Function, label: str, payload: object) -> None:
        """Record the evaluation payload of ``(function, label)``.

        Called both by the engine after computing a function fresh and when
        warm-loading persisted results from an analysis store.
        """
        self._evaluations[(function, label)] = payload
        self._function_evaluations.setdefault(function, set()).add(label)

    def evaluation_count(self) -> int:
        return len(self._evaluations)

    # -- verdict columns -------------------------------------------------------------
    def get_column(self, function: Function, label: str) -> Optional[str]:
        """The memoized verdict column of ``(function, label)``, if any.

        See :meth:`repro.alias.AliasAnalysis.memoize_columns`; ``label`` is a
        member label in the engine's cache-label form (``lt``,
        ``lt#intra``, ...), so :meth:`refresh` migrates it by the same
        fingerprint scope as an evaluation payload of that label.
        """
        cached = self._columns.get((function, label))
        self.statistics.record("column", hit=cached is not None)
        return cached

    def put_column(self, function: Function, label: str, column: str) -> None:
        self._columns[(function, label)] = column
        self._function_columns.setdefault(function, set()).add(label)

    def column_count(self) -> int:
        return len(self._columns)

    # -- invalidation -----------------------------------------------------------------
    def _drop_function_entries(self, function: Function) -> None:
        # Live analysis objects only: evaluation payloads are content-addressed
        # by the engine against the *pre-conversion* IR and describe the result
        # of the full pipeline, so the cache's own e-SSA conversion (which
        # routes through here) must not drop them.  Explicit `invalidate`
        # (an outside IR mutation) drops them below.
        self._ranges.pop(function, None)
        self._function_lessthan.pop(function, None)
        self._function_disambiguators.pop(function, None)

    def _label_tables(self):
        """The (function, label)-keyed tables with their label indexes."""
        return ((self._evaluations, self._function_evaluations),
                (self._columns, self._function_columns))

    def _drop_function_evaluations(self, function: Function) -> None:
        # The per-function label index makes this O(entries for *this*
        # function); the old full-table scan cost O(all entries) per
        # invalidation, quadratic over a churn session.
        for table, index in self._label_tables():
            for label in index.pop(function, ()):
                table.pop((function, label), None)

    def _drop_one_evaluation(self, function: Function, label: str) -> None:
        for table, index in self._label_tables():
            table.pop((function, label), None)
            labels = index.get(function)
            if labels is not None:
                labels.discard(label)
                if not labels:
                    del index[function]

    def invalidate(self, function: Optional[Function] = None) -> None:
        """Drop cached state for ``function`` (or everything, when ``None``).

        Module-level analyses covering the function's module are dropped too,
        since their constraints embed the function's instructions.  Sibling
        functions are invalidated *per call-graph reachability*, not
        wholesale: an edit's interprocedural facts can only reach the edited
        function's transitive callees (facts flow caller → callee) and its
        dependency fingerprint only covers its transitive callers, so
        evaluation payloads of functions outside both closures survive.  The
        reachability is read from the post-mutation call graph; an edit that
        *removes* call edges should invalidate both endpoints (or everything)
        explicitly.
        """
        self.statistics.invalidations += 1
        if function is None:
            self._essa.clear()
            self._ranges.clear()
            self._function_lessthan.clear()
            self._module_lessthan.clear()
            self._function_disambiguators.clear()
            self._module_disambiguators.clear()
            for table, index in self._label_tables():
                table.clear()
                index.clear()
            self._range_hints.clear()
            self._pre_ranges.clear()
            self._pre_range_hints.clear()
            self._snapshots.clear()
            return
        from repro.ir.callgraph import CallGraph

        self._essa.pop(function, None)
        self._drop_function_entries(function)
        self._drop_function_evaluations(function)
        self._range_hints.pop(function, None)
        self._pre_ranges.pop(function, None)
        self._pre_range_hints.pop(function, None)
        module = function.parent
        if module is not None:
            for key in [k for k in self._module_lessthan if k[0] is module]:
                del self._module_lessthan[key]
            for key in [k for k in self._module_disambiguators if k[0] is module]:
                del self._module_disambiguators[key]
            graph = CallGraph(module)
            if function.name in graph.callees:
                coupled = (graph.transitive_callers(function.name)
                           | graph.transitive_callees(function.name))
                coupled.discard(function.name)
                for other in module.defined_functions():
                    if other is not function and other.name in coupled:
                        self._drop_function_evaluations(other)

    # -- incremental refresh -----------------------------------------------------------
    def refresh(self, module: Module) -> RefreshResult:
        """Diff ``module`` against the previous snapshot of the same module
        name and invalidate exactly the edit's blast radius.

        The first call per module name records a baseline (every function
        reported dirty).  Later calls classify each function by its own-IR
        hash, then for every *clean* function migrate each evaluation payload
        and verdict column whose fingerprint scope (see
        :func:`repro.engine.workunit.label_fingerprint_scope`) is unchanged
        onto the new compile's function object — region-scoped entries
        survive edits outside ``{function} ∪ transitive callers``,
        dependency-scoped entries survive edits outside the callee closure,
        module-scoped entries only a byte-identical module.  Dirty functions
        additionally get their previous range analysis registered as an
        incremental-re-solve hint (consumed by :meth:`ranges`).  Stale state
        of the previous compile's objects is purged.

        Snapshots hash whatever form the functions are currently in, so call
        ``refresh`` at a consistent pipeline point (before e-SSA conversion,
        like the engine's content addressing).
        """
        from repro.engine.workunit import label_fingerprint_scope
        from repro.ir.callgraph import module_fingerprints

        prints = module_fingerprints(module)
        functions = {function.name: function
                     for function in module.defined_functions()}
        module_hash = _module_content_hash(module)
        snapshot = _ModuleSnapshot(prints, functions, module_hash)
        previous = self._snapshots.get(module.name)
        self._snapshots[module.name] = snapshot
        if previous is None:
            return RefreshResult(dirty=sorted(functions), clean=[],
                                 removed=[], migrated=0)

        dirty = [name for name in sorted(functions)
                 if prints.own[name] != previous.prints.own.get(name)]
        dirty_set = set(dirty)
        clean = [name for name in sorted(functions) if name not in dirty_set]
        removed = [name for name in sorted(previous.functions)
                   if name not in functions]
        for name in sorted(functions):
            self.statistics.record("refresh", hit=name not in dirty_set)

        migrated = 0
        for name in clean:
            old_function = previous.functions.get(name)
            if old_function is None:
                continue
            labels = set(self._function_evaluations.get(old_function, ()))
            labels.update(self._function_columns.get(old_function, ()))
            for label in sorted(labels):
                scope = label_fingerprint_scope(label)
                if scope == "module":
                    valid = previous.module_hash == module_hash
                elif scope == "region":
                    valid = (previous.prints.region.get(name)
                             == prints.region[name])
                else:
                    valid = (previous.prints.fingerprint.get(name)
                             == prints.fingerprint[name])
                if not valid:
                    if old_function is functions[name]:
                        # In-place refresh: the stale payload sits on the
                        # *current* object and must go.
                        self._drop_one_evaluation(old_function, label)
                    continue
                if old_function is functions[name]:
                    continue
                payload = self._evaluations.get((old_function, label))
                if payload is not None:
                    self.put_evaluation(functions[name], label, payload)
                    migrated += 1
                column = self._columns.get((old_function, label))
                if column is not None:
                    self.put_column(functions[name], label, column)

        # Previous-compile range analyses become incremental-re-solve seeds
        # for the new objects; for clean functions the solver reuses every
        # component, for dirty ones only the edit's def-use frontier re-runs.
        for name, function in functions.items():
            old_function = previous.functions.get(name)
            if old_function is None or old_function is function:
                continue
            old_ranges = self._ranges.get(old_function)
            if old_ranges is not None:
                self._range_hints[function] = old_ranges
            old_pre = self._pre_ranges.get(old_function)
            if old_pre is not None:
                self._pre_range_hints[function] = old_pre

        # Purge the previous compile's (now unreachable) objects, and stale
        # state when refreshing the same compile in place.
        for name, old_function in previous.functions.items():
            if old_function is functions.get(name):
                if name in dirty_set:
                    self._essa.pop(old_function, None)
                    self._drop_function_entries(old_function)
                    self._drop_function_evaluations(old_function)
                    self._pre_ranges.pop(old_function, None)
                continue
            self._essa.pop(old_function, None)
            self._drop_function_entries(old_function)
            self._drop_function_evaluations(old_function)
            self._range_hints.pop(old_function, None)
            self._pre_ranges.pop(old_function, None)
            self._pre_range_hints.pop(old_function, None)
        old_modules = {old_function.parent
                       for old_function in previous.functions.values()
                       if old_function.parent is not None
                       and old_function.parent is not module}
        stale_modules = set(old_modules)
        if dirty or removed:
            stale_modules.add(module)
        for stale in stale_modules:
            for key in [k for k in self._module_lessthan if k[0] is stale]:
                del self._module_lessthan[key]
            for key in [k for k in self._module_disambiguators if k[0] is stale]:
                del self._module_disambiguators[key]
        return RefreshResult(dirty=dirty, clean=clean, removed=removed,
                             migrated=migrated)

    # -- introspection ---------------------------------------------------------------
    def cached_functions(self) -> int:
        return len(self._ranges)

    def __repr__(self) -> str:
        return "<FunctionAnalysisCache functions={} {}>".format(
            self.cached_functions(), self.statistics)
