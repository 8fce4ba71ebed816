"""How the benchmark analyzes one unit.

A *unit* is one analyzed program version.  The untraced paths go through
the public :class:`repro.api.Session` surface exactly as a user would:
``Session.evaluate_source`` for a cold aa-eval, ``Session.update_source``
for an edit.  The traced paths drive the same work stage by stage through
each layer's public functions and record a span around every call:

* cold units (``spec-mix``, ``chain-loops``): parse, lower, mem2reg, IR
  verification, the pre-conversion range solve, e-SSA conversion, the
  post-conversion range solve, the module less-than build, then the aa-eval
  query loop of each spec, in the engine's order (spec by spec, function by
  function);
* edits (``edit-churn``): the same frontend stages, then
  ``FunctionAnalysisCache.refresh`` and ``Session.evaluate``.  Inside
  ``Session.evaluate`` the store's ``get``/``put_many`` and the cache's
  ``ensure_essa``/``ranges``/``module_lessthan`` are timed through
  subclasses; on this workload ``essa.convert`` includes the
  pre-conversion range solve that ``ensure_essa`` folds in.

Both paths return verdicts as ``{label: {function: codes}}``, so a traced
unit can be checked against its untraced twin.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.alias.aaeval import evaluate_function_verdicts
from repro.api import ReproConfig, Session
from repro.engine.store import AnalysisStore
from repro.engine.worker import build_analysis
from repro.engine.workunit import DEFAULT_SPECS, spec_label
from repro.essa.transform import convert_to_essa
from repro.frontend import lower_program, parse_program
from repro.ir.ssa import promote_memory_to_registers
from repro.ir.verifier import verify_module
from repro.passes.analysis_cache import FunctionAnalysisCache
from repro.rangeanalysis import RangeAnalysis

from spans import SpanRecorder

SPECS = DEFAULT_SPECS
LABELS = tuple(spec_label(spec) for spec in SPECS)
CHAIN_LABEL = "basicaa+lt"
ALIAS_SPANS = {"basicaa": "alias.basicaa", "lt": "alias.lt",
               CHAIN_LABEL: "alias.chain"}

Verdicts = Dict[str, Dict[str, str]]


def new_session(store_path: Optional[str] = None) -> Session:
    """A serial, untraced session (the benchmark's closed loop has one
    client and no worker pool)."""
    return Session(ReproConfig(workers=0, store_path=store_path, trace=None))


def verdicts_of(result) -> Verdicts:
    """The verdict streams of a :class:`~repro.engine.driver.UnitResult`."""
    return {label: result.verdicts(label) for label in LABELS}


class Counters(dict):
    """Work counts gathered at the traced layer boundaries."""

    def add(self, name: str, value: float) -> None:
        self[name] = self.get(name, 0) + value


class CountingCache(FunctionAnalysisCache):
    """The analysis cache with spans and work counts around its solver
    entry points; a call that hits the cache adds no counts."""

    def __init__(self, recorder: SpanRecorder, counters: Counters) -> None:
        super().__init__()
        self.recorder = recorder
        self.counters = counters

    def _misses(self, kind: str) -> int:
        return self.statistics.by_kind.get(kind, {}).get("misses", 0)

    def ensure_essa(self, function):
        before = self._misses("essa")
        with self.recorder.span("essa.convert"):
            info = super().ensure_essa(function)
        if self._misses("essa") > before:
            self.counters.add("essa.copies", info.total_copies)
        return info

    def ranges(self, function):
        before = self._misses("ranges")
        with self.recorder.span("rangeanalysis.solve"):
            analysis = super().ranges(function)
        if self._misses("ranges") > before:
            self.counters.add("rangeanalysis.evaluations",
                              analysis.statistics.evaluations)
            self.counters.add("rangeanalysis.reused_components",
                              analysis.statistics.reused_components)
        return analysis

    def module_lessthan(self, module, interprocedural=True):
        before = self._misses("lessthan")
        with self.recorder.span("lessthan.build"):
            analysis = super().module_lessthan(module, interprocedural)
        if self._misses("lessthan") > before:
            self.counters.add("lessthan.constraints",
                              analysis.statistics.constraint_count)
            self.counters.add("lessthan.worklist_pops",
                              analysis.statistics.worklist_pops)
        return analysis


class TimingStore(AnalysisStore):
    """The analysis store with a span around every read and write batch."""

    recorder: Optional[SpanRecorder] = None

    def get(self, key):
        with self.recorder.span("store.get"):
            return super().get(key)

    def put_many(self, items):
        with self.recorder.span("store.put"):
            super().put_many(items)


def open_timing_store(session: Session, path: str,
                      recorder: SpanRecorder) -> TimingStore:
    """A :class:`TimingStore` opened the way ``session`` would open its own."""
    config = session.config
    store = TimingStore(path, backend=config.store_backend,
                        max_bytes=(config.store_max_bytes
                                   if config.store_max_bytes is not None else 0))
    store.recorder = recorder
    return store


def _traced_frontend(recorder: SpanRecorder, name: str, source: str):
    """``compile_source`` split into its four stages."""
    with recorder.span("frontend.parse"):
        program = parse_program(source)
    with recorder.span("frontend.lower"):
        module = lower_program(program, name, promote=False, verify=False)
    with recorder.span("ir.mem2reg"):
        for function in module.defined_functions():
            promote_memory_to_registers(function)
    with recorder.span("ir.verify"):
        verify_module(module)
    return module


def traced_cold_unit(recorder: SpanRecorder, counters: Counters,
                     config: ReproConfig, name: str, source: str) -> Verdicts:
    """One cold aa-eval, stage by stage (what ``evaluate_source`` does)."""
    cache = CountingCache(recorder, counters)
    with config.activate(), recorder.span("unit"):
        module = _traced_frontend(recorder, name, source)
        functions: List = list(module.defined_functions())
        for function in functions:
            with recorder.span("rangeanalysis.solve"):
                pre_ranges = RangeAnalysis(function)
                pre_ranges.snapshot()  # as ensure_essa does before converting
            with recorder.span("essa.convert"):
                info = convert_to_essa(function, pre_ranges)
            counters.add("rangeanalysis.evaluations",
                         pre_ranges.statistics.evaluations)
            counters.add("essa.copies", info.total_copies)
        for function in functions:
            cache.ranges(function)
        cache.module_lessthan(module, True)
        verdicts: Verdicts = {}
        for spec in SPECS:
            label = spec_label(spec)
            analysis = None
            codes_by_function = {}
            for function in functions:
                with recorder.span(ALIAS_SPANS[label]):
                    if analysis is None:
                        analysis = build_analysis(spec, module, cache, True)
                    _evaluation, codes = evaluate_function_verdicts(
                        function, analysis)
                codes_by_function[function.name] = codes
            verdicts[label] = codes_by_function
    counters.add("cache.hits", cache.statistics.hits)
    counters.add("cache.lookups", cache.statistics.lookups)
    return verdicts


def traced_edit(recorder: SpanRecorder, session: Session, store: TimingStore,
                name: str, source: str) -> Verdicts:
    """One edit, stage by stage (what ``update_source`` does)."""
    with recorder.span("unit"):
        module = _traced_frontend(recorder, name, source)
        with session.config.activate(), recorder.span("passes.refresh"):
            session.cache.refresh(module)
        with recorder.span("engine.evaluate"):
            result = session.evaluate(module, SPECS, store=store)
    return verdicts_of(result)
