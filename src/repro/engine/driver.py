"""The coordinator: worker pools, payload absorption and the store life cycle.

:class:`repro.api.session.Session` is the only entry point; its
``run_workload`` / ``evaluate_source`` / ``evaluate`` methods drive the
internals below:

* :func:`_run_units` — evaluate one work unit per program, fanned out over
  ``multiprocessing`` workers (or run in-process when ``workers <= 1`` or
  there is a single unit — the serial fallback needs no subprocesses, which
  keeps the tier-1 test suite self-contained).  The pooled path streams:
  payloads are consumed with ``imap_unordered`` as they land, store
  write-back overlaps with still-running units, an optional observer sees
  every payload immediately, and a sort on the input index restores
  deterministic output order.
* :func:`_absorb_payload` — the one coordinator-side step every payload
  passes through, serial or pooled: pop the shipped spans, count and judge
  any shipped verification report, then write fresh entries back.

Workers only ever *read* the store; freshly computed entries return to the
coordinator inside each payload and are written back here, keeping the
writer count at one regardless of the worker count.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

import repro
from repro.api import config as api_config
from repro.alias.aaeval import AliasEvaluation, resolution_counts
from repro.core.disambiguation import DisambiguationStatistics
from repro.engine import worker as worker_module
from repro.engine.store import AnalysisStore
from repro.engine.workunit import WorkUnit
from repro.obs import TRACER
from repro.verify import COUNTERS, VerificationReport


def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _source_root() -> str:
    # Where this process imported ``repro`` from; spawned workers get it
    # prepended to sys.path so they can import the package too.
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class UnitResult:
    """A merged, coordinator-side view of one work unit's payload."""

    def __init__(self, payload: Dict[str, object]) -> None:
        self.payload = payload

    @property
    def name(self) -> str:
        return self.payload["name"]

    @property
    def kind(self) -> str:
        return self.payload.get("kind", "aaeval")

    @property
    def instructions(self) -> int:
        return int(self.payload.get("instructions", 0))

    # -- aaeval payloads ----------------------------------------------------------
    def evaluation(self, label: str) -> AliasEvaluation:
        counts = self.payload["labels"][label]["counts"]
        return AliasEvaluation.from_dict(counts)

    @property
    def labels(self) -> List[str]:
        return list(self.payload.get("labels", {}))

    def resolution(self, label: str) -> Dict[str, int]:
        """Pairs decided by each member of spec ``label``, plus the pairs
        it leaves unresolved (:func:`~repro.alias.aaeval.resolution_counts`
        over this unit's labels)."""
        return resolution_counts(
            label, {name: self.evaluation(name) for name in self.labels})

    def verdicts(self, label: str) -> Dict[str, str]:
        """Per-function verdict code strings (bit-identity comparisons)."""
        return dict(self.payload["labels"][label].get("verdicts", {}))

    @property
    def statistics(self) -> DisambiguationStatistics:
        return DisambiguationStatistics.from_dict(
            self.payload.get("statistics", {}))

    @property
    def store_hits(self) -> int:
        return int(self.payload.get("store_hits", 0))

    @property
    def store_misses(self) -> int:
        return int(self.payload.get("store_misses", 0))

    def __getitem__(self, key: str) -> object:
        return self.payload[key]

    def __repr__(self) -> str:
        return "<UnitResult {} kind={}>".format(self.name, self.kind)


UnitLike = Union[WorkUnit, Tuple[str, str], object]


def _normalize_units(units: Sequence[UnitLike], kind: str,
                     specs: Sequence[Sequence[str]],
                     interprocedural: bool) -> List[WorkUnit]:
    spec_tuple = tuple(tuple(spec) for spec in specs)
    normalized: List[WorkUnit] = []
    for unit in units:
        if isinstance(unit, WorkUnit):
            normalized.append(unit)
        elif isinstance(unit, tuple) and len(unit) == 2:
            name, source = unit
            normalized.append(WorkUnit(kind, name, source, spec_tuple,
                                       interprocedural))
        elif hasattr(unit, "name") and hasattr(unit, "source"):
            # WorkloadProgram and friends.
            normalized.append(WorkUnit(kind, unit.name, unit.source,
                                       spec_tuple, interprocedural))
        else:
            raise TypeError("cannot build a WorkUnit from {!r}".format(unit))
    return normalized


def _absorb_payload(store: Optional[AnalysisStore],
                    payload: Dict[str, object]) -> None:
    """The coordinator-side step every payload passes through.

    Serial and pooled runs and :meth:`~repro.api.session.Session.evaluate`
    all call it, in this order:

    1. *spans* — a pool worker's drained span buffer (``spans``) and clock
       anchor (``span_epoch``) are rebased and merged onto the coordinator
       tracer under a ``worker-<pid>`` lane;
    2. *verification* — a shipped ``REPRO_VERIFY=post`` report (``verify``)
       is counted into :data:`repro.verify.COUNTERS` when it comes from
       another process (an in-process run already counted it) and raises
       :class:`~repro.verify.VerifyError` on error findings, so a failed
       unit is never persisted and fails identically pooled or not;
    3. *write-back* — freshly computed entries (``new_entries``) are
       persisted and the *touched keys* a read-only worker store recorded
       (``touched_keys``) are promoted to the current generation, so
       eviction approximates LRU rather than FIFO.

    Every field above is popped unconditionally, so verdict output never
    carries timing, verification or store data.
    """
    spans = payload.pop("spans", None)
    epoch = payload.pop("span_epoch", None)
    if spans:
        lane = "worker-{}".format(payload.get("pid", "?"))
        TRACER.absorb_shard(spans, lane, epoch)
    shipped = payload.pop("verify", None)
    if shipped:
        report = VerificationReport.from_dict(shipped)
        if payload.get("pid") != os.getpid():
            COUNTERS.record(report)
        report.raise_if_failed("REPRO_VERIFY=post ({}, pid {})".format(
            payload.get("name", "?"), payload.get("pid", "?")))
    entries = payload.pop("new_entries", None)
    touched = payload.pop("touched_keys", None)
    if store is None or store.readonly:
        return
    if touched:
        store.touch_many(touched)
    if entries:
        store.put_many(entries)


def _run_units(units: List[WorkUnit], workers: int,
               store: Optional[AnalysisStore],
               max_tasks_per_child: Optional[int] = None,
               on_payload=None) -> List[Dict[str, object]]:
    """Execute ``units`` (serial or streamed over a pool).

    The pooled path streams: results are consumed with ``imap_unordered``
    as workers finish, so store write-back (and the caller's ``on_payload``
    observer) overlaps with still-in-flight units instead of waiting for
    the slowest one.  Each task carries its input index and the collected
    results are sorted by it afterwards, so the returned payload order is
    deterministic — identical to the serial path — regardless of worker
    scheduling.
    """
    pool = None
    arrived: List[Tuple[int, Dict[str, object]]] = []
    try:
        if workers <= 1 or len(units) <= 1:
            stream = ((index, worker_module.run_work_unit(unit, store=store))
                      for index, unit in enumerate(units))
        else:
            store_spec = None
            if store is not None:
                store_spec = (store.path, store.version, store.backend_name)
            context = multiprocessing.get_context(_start_method())
            # Ship the active config (if any) into every worker so that
            # class truncation and self-checks resolve exactly as on the
            # coordinator.
            pool = context.Pool(
                processes=workers,
                initializer=worker_module.initialize_worker,
                initargs=(_source_root(), api_config.active_config()),
                maxtasksperchild=max_tasks_per_child)
            tasks = [(index, unit, store_spec)
                     for index, unit in enumerate(units)]
            stream = pool.imap_unordered(worker_module.execute_indexed, tasks,
                                         chunksize=1)
        for index, payload in stream:
            _absorb_payload(store, payload)
            arrived.append((index, payload))
            if on_payload is not None:
                on_payload(payload)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    arrived.sort(key=lambda item: item[0])
    return [payload for _index, payload in arrived]
