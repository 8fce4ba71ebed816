#!/usr/bin/env python3
"""End-to-end benchmark of the analyzer: one seeded workload per run.

    python3 perfbench/run.py --workload spec-mix --seed 0 --seconds 10 --trace 0

It imports ``repro`` from the ``src/`` directory beside ``perfbench/`` and
exits with an error when that is missing.

Load shape: a closed loop with one client.  Each *unit* (one analyzed
program version) is sent only after the previous one returned, serially
(``workers=0``) in this process.  Specs are the CLI defaults ``basicaa``,
``lt`` and ``basicaa+lt``.

Workloads (``--seed`` makes the inputs, see ``workloads.py``):

* ``spec-mix`` - cold aa-eval of the 16 SPEC-profile programs, no store;
* ``chain-loops`` - cold aa-eval of pointer-free chain loops plus the
  paper's nested-loop kernels, no store;
* ``edit-churn`` - one session with a store in a fresh directory; the cold
  baseline runs in set-up, then single-literal edits go through
  ``Session.update_source``.

Every time the benchmark reports is at nominal host speed: the host it
runs on changes speed in phases, so a fixed pure-Python loop probes the
speed between units, off the clock, and each timed interval is divided by
the host's slowness at that moment (``hostspeed.py``; the untraced run
prints the median slowness as ``host_slowness``).  ``--seconds`` likewise
budgets unit time at nominal speed, so a run does the same work whatever
the host's speed; on a slow spell it takes longer.

``--trace 0`` measures the end-to-end metrics with tracing off, over at
least ``MIN_UNITS`` units and ``--seconds`` of timed work, split over
``PARTS`` processes run one after another and pooled.  ``setup_s`` is the
median over the parts of each one's set-up: imports (as measured),
generation and one untimed pass (for ``edit-churn``, the cold baseline).

``--trace 1`` measures the per-layer metrics.  It times units untraced for
half the budget, then the same units stage by stage with spans
(``pipeline.py``), and writes the spans as a Chrome trace under
``.perfbench_out/``.  Per-layer ``*_s`` metrics are self seconds per traced
unit, counts are per unit, ``share.*`` are shares of traced unit time and
``trace.overhead_pct`` is traced minus untraced time of the same units.

Correctness, checked off the clock in every run:

* each timed unit's verdicts equal those of the same unit in the set-up
  pass (cold workloads) or, in a traced run, of its untraced twin;
* the per-label sha256 of the verdict stream equals the one recorded in
  ``reference.json`` for this seed, if one is recorded;
* cold workloads: ``verify_analysis`` certifies every unit; ``edit-churn``:
  a seeded sample of edits, re-solved cold in a fresh session, gives
  bit-identical verdicts.

A unit that raised or failed a check counts in ``failed``; a stream digest
mismatch fails every unit.  The last line of output is one JSON object.
"""

from __future__ import annotations

import time

from hostspeed import MIN_PROBES, PROBE

PROBE.sample(MIN_PROBES)
_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Dict, Iterator, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    raise SystemExit("perfbench: no analyzer sources under {}".format(SRC))
sys.path.insert(0, SRC)
import pipeline  # noqa: E402
import workloads  # noqa: E402
from repro.frontend import compile_source, tokenize  # noqa: E402
from spans import SpanRecorder, self_by_name, write_trace  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("spec-mix", "chain-loops", "edit-churn")
#: timed units per untraced run at least (pooled over its parts), so the
#: p90 has ten samples beyond it.
MIN_UNITS = 100
#: processes an untraced run is split into, one after another; each sets
#: up once, and ``setup_s`` is the median of their set-ups.
PARTS = 3
#: seconds a part may take before the run is abandoned.
PART_TIMEOUT = 120
#: leading edits whose verdicts form the ``edit-churn`` stream digest;
#: every run (each phase of a traced one) analyzes at least this many.
REFERENCE_EDITS = 32
#: edits of an ``edit-churn`` run that the audit re-solves cold.
AUDIT_EDITS = 8

END_TO_END = (("setup_s", "s"), ("insts_per_s", "insts/s"),
              ("unit_ms_p50", "ms"), ("unit_ms_p90", "ms"),
              ("peak_rss_mb", "MB"), ("noalias_pct", "%"))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def unit_digest(verdicts) -> str:
    return hashlib.sha256(
        json.dumps(verdicts, sort_keys=True).encode()).hexdigest()


class StreamDigest:
    """Per-label sha256 of a verdict stream, in unit order."""

    def __init__(self, labels) -> None:
        self._hashes = {label: hashlib.sha256() for label in labels}

    def add(self, name: str, verdicts) -> None:
        for label, hasher in self._hashes.items():
            hasher.update(name.encode() + b"\0")
            for function in sorted(verdicts[label]):
                hasher.update("{}\0{}\n".format(
                    function, verdicts[label][function]).encode())

    def hexdigests(self) -> Dict[str, str]:
        return {label: hasher.hexdigest()
                for label, hasher in self._hashes.items()}


def recorded_digests(workload: str, key: str) -> Optional[Dict[str, str]]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        reference = json.load(handle)
    return reference["digests"].get(workload, {}).get(key)


def pair_counts(verdicts) -> Tuple[int, int, int]:
    """``(pairs, pairs basicaa leaves undecided, of those LT proves)``."""
    pairs = undecided = proved = 0
    for function, codes in verdicts["basicaa"].items():
        pairs += len(codes)
        for basic, lt in zip(codes, verdicts["lt"][function]):
            if basic == "M":
                undecided += 1
                proved += lt == "N"
    return pairs, undecided, proved


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Records(list):
    """Timed units in order.  ``peak_rss_mb`` is the process peak once the
    first ``min_units`` ran, so it covers the same work in every run (the
    ``edit-churn`` session grows with every edit)."""

    peak_rss_mb = 0.0


class Record:
    """One timed unit: what ran, how long it took, what it answered.
    ``seconds`` is at nominal host speed once :func:`measure` returns;
    ``began`` and ``wall`` are as measured."""

    __slots__ = ("position", "name", "source", "began", "wall", "seconds",
                 "digest", "no_alias", "queries", "memoized", "truncated",
                 "pairs")

    def __init__(self, position: int, name: str, source: str, began: float,
                 wall: float, result, verdicts) -> None:
        self.position = position
        self.name = name
        self.source = source
        self.began = began
        self.wall = self.seconds = wall
        self.no_alias = self.queries = self.memoized = self.truncated = 0
        if result is not None:
            evaluation = result.evaluation(pipeline.CHAIN_LABEL)
            self.no_alias = evaluation.no_alias
            self.queries = evaluation.total_queries
            self.memoized = result.statistics.memoized_values
            self.truncated = result.statistics.truncated_classes
        self.digest = unit_digest(verdicts) if verdicts is not None else None
        self.pairs = pair_counts(verdicts) if verdicts is not None else (0, 0, 0)


def measure(units: Iterator[Tuple[int, str, str]], analyze, seconds: float,
            min_units: int, count: Optional[int] = None,
            stream: Optional[StreamDigest] = None,
            stream_units: int = 0, whole: int = 1) -> List[Record]:
    """Analyze units one after another (the closed loop).

    Runs ``count`` units when given, else until the units took ``seconds``
    at nominal host speed, at least ``min_units`` ran and the count is a
    multiple of ``whole`` (whole passes weigh every program alike).
    ``analyze(name, source)`` returns a ``UnitResult`` or a verdict dict; a
    unit that raises has no verdicts.  The first ``stream_units`` verdicts
    are added to ``stream``.

    The host-speed probe runs between units, off the clock, and each
    record's ``seconds`` is then scaled to nominal host speed
    (``hostspeed.py``).  Budgeting nominal seconds, not wall seconds, makes
    the work of a run independent of the host's speed: a session that
    grows with every edit would otherwise reach a different size in a
    fast spell than in a slow one.
    """
    records = Records()
    gc.collect()  # every loop starts from the same collector state
    spent = 0.0
    while (len(records) < count if count is not None
           else len(records) < min_units or len(records) % whole
           or spent < seconds):
        position, name, source = next(units)
        PROBE.due()
        began = time.perf_counter()
        try:
            outcome = analyze(name, source)
        except Exception as error:  # a failing unit is counted, not fatal
            sys.stderr.write("perfbench: {} raised {!r}\n".format(name, error))
            outcome = None
        seconds_taken = time.perf_counter() - began
        spent += PROBE.normalize(began, seconds_taken)
        result = verdicts = None
        if isinstance(outcome, dict):
            verdicts = outcome
        elif outcome is not None:
            result, verdicts = outcome, pipeline.verdicts_of(outcome)
        records.append(Record(position, name, source, began, seconds_taken,
                              result, verdicts))
        if stream is not None and len(records) <= stream_units and verdicts:
            stream.add(name, verdicts)
        if len(records) == min_units:
            records.peak_rss_mb = peak_rss_mb()
    PROBE.sample(MIN_PROBES)  # so the last units have probes after them
    for record in records:
        record.seconds = PROBE.normalize(record.began, record.wall)
    return records


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class ColdWorkload:
    """``spec-mix`` and ``chain-loops``: a fixed list of programs, cycled."""

    def __init__(self, name: str, seed: int, _scratch: str,
                 _part: int) -> None:
        self.name = name
        self.seed = seed
        self.reference_key = str(seed)

    def setup(self) -> float:
        """Generate the programs and analyze each once, untimed; the pass
        gives the reference verdicts.  Returns its seconds, probes left
        out."""
        started, probed = time.perf_counter(), PROBE.spent
        self.units = workloads.programs(self.name, self.seed)
        self.session = pipeline.new_session()
        reference = []
        for name, source in self.units:
            PROBE.due()
            reference.append(pipeline.verdicts_of(
                self.session.evaluate_source(name, source)))
        seconds = time.perf_counter() - started - (PROBE.spent - probed)
        self.expected = [unit_digest(verdicts) for verdicts in reference]
        digest = StreamDigest(pipeline.LABELS)
        for (name, _source), verdicts in zip(self.units, reference):
            digest.add(name, verdicts)
        self.stream = digest.hexdigests()
        return seconds

    def instructions(self) -> Dict[str, int]:
        return {name: compile_source(source, name).instruction_count()
                for name, source in self.units}

    def tokens(self) -> Dict[str, int]:
        return {name: len(tokenize(source)) - 1
                for name, source in self.units}

    def units_iter(self) -> Iterator[Tuple[int, str, str]]:
        for index in itertools.count():
            position = index % len(self.units)
            name, source = self.units[position]
            yield position, name, source

    def untraced(self, seconds: float, min_units: int) -> List[Record]:
        return measure(self.units_iter(), self.session.evaluate_source,
                       seconds, min_units, whole=len(self.units))

    def failures(self, records: List[Record]) -> set:
        return {index for index, record in enumerate(records)
                if record.digest != self.expected[record.position]}

    def audit(self, records: List[Record]) -> set:
        """Indexes of records whose program ``verify_analysis`` rejects.
        Sets ``audit_seconds``, the time spent in the checks per program
        at nominal host speed."""
        session = pipeline.new_session()
        rejected = set()
        checking = 0.0
        for position, (name, source) in enumerate(self.units):
            PROBE.due()
            try:
                unit = session.compile(source, name).analyze()
                started = time.perf_counter()
                ok = unit.verify().ok
                checking += PROBE.normalize(started,
                                            time.perf_counter() - started)
            except Exception:
                ok = False
            if not ok:
                rejected.add(position)
        self.audit_seconds = checking / len(self.units)
        return {index for index, record in enumerate(records)
                if record.position in rejected}

    def traced(self, untraced: List[Record], recorder, counters):
        config = self.session.config

        def analyze(name, source):
            recorder.unit += 1
            return pipeline.traced_cold_unit(recorder, counters, config,
                                             name, source)

        records = measure(self.units_iter(), analyze, 0, 0,
                          count=len(untraced))
        cache_hit_pct = 100.0 * counters.get("cache.hits", 0) / max(
            counters.get("cache.lookups", 0), 1)
        return records, cache_hit_pct, None

    def close(self) -> None:
        self.session.close()


class EditWorkload:
    """``edit-churn``: an endless stream of edits against a warm store."""

    name = "edit-churn"

    def __init__(self, _name: str, seed: int, scratch: str, part: int) -> None:
        self.seed = seed
        self.scratch = scratch
        self.part = part
        self.reference_key = (str(seed) if part == 0
                              else "{}.{}".format(seed, part))

    def _store_path(self) -> str:
        return os.path.join(tempfile.mkdtemp(dir=self.scratch), "store.db")

    def _baseline(self, session, store=None):
        for name, source in self.base:
            PROBE.due()
            session.update_source(name, source, store=store)
        return session

    def setup(self) -> float:
        """The cold baseline.  Returns its seconds, probes left out."""
        started, probed = time.perf_counter(), PROBE.spent
        self.base = workloads.programs(self.name, self.seed)
        self.session = self._baseline(
            pipeline.new_session(self._store_path()))
        return time.perf_counter() - started - (PROBE.spent - probed)

    def instructions(self) -> Dict[str, int]:
        """Per program; a literal edit keeps the instruction count."""
        return {name: compile_source(source, name).instruction_count()
                for name, source in self.base}

    def tokens(self) -> Dict[str, int]:
        return {name: len(tokenize(source)) - 1 for name, source in self.base}

    def units_iter(self) -> Iterator[Tuple[int, str, str]]:
        for position, (name, source) in enumerate(
                workloads.EditStream(self.seed, self.part)):
            yield position, name, source

    def untraced(self, seconds: float, min_units: int) -> List[Record]:
        digest = StreamDigest(pipeline.LABELS)
        session = self.session
        records = measure(
            self.units_iter(),
            lambda name, source: session.update_source(name, source).result,
            seconds, max(min_units, REFERENCE_EDITS),
            stream=digest, stream_units=REFERENCE_EDITS)
        self.stream = digest.hexdigests()
        return records

    def failures(self, records: List[Record]) -> set:
        return {index for index, record in enumerate(records)
                if record.digest is None}

    def audit(self, records: List[Record]) -> set:
        """Indexes of sampled edits whose cold re-solve differs.  Sets
        ``audit_seconds``, the time of one cold re-solve at nominal host
        speed."""
        rng = random.Random("audit/{}".format(self.seed))
        sample = rng.sample(range(len(records)),
                            min(AUDIT_EDITS, len(records)))
        cold = pipeline.new_session()
        differing = set()
        solving = 0.0
        for index in sorted(sample):
            record = records[index]
            PROBE.due()
            started = time.perf_counter()
            try:
                digest = unit_digest(pipeline.verdicts_of(
                    cold.evaluate_source(record.name, record.source)))
            except Exception:
                digest = None
            solving += PROBE.normalize(started, time.perf_counter() - started)
            if digest is None or digest != record.digest:
                differing.add(index)
        self.audit_seconds = solving / len(sample)
        return differing

    def traced(self, untraced: List[Record], recorder, counters):
        """Replays the untraced edits, stage by stage, in a second session
        whose cache and store are the timing subclasses."""
        session = pipeline.new_session()
        session.cache = pipeline.CountingCache(recorder, counters)
        store = pipeline.open_timing_store(session, self._store_path(),
                                           recorder)
        try:
            self._baseline(session, store)
            del recorder.spans[:]
            counters.clear()
            cache = session.cache.statistics
            hits, lookups = cache.hits, cache.lookups
            store_hits, store_lookups = store.hits, store.lookups

            def analyze(name, source):
                recorder.unit += 1
                return pipeline.traced_edit(recorder, session, store,
                                            name, source)

            records = measure(self.units_iter(), analyze, 0, 0,
                              count=len(untraced))
            cache_hit_pct = 100.0 * (cache.hits - hits) / max(
                cache.lookups - lookups, 1)
            store_stats = {
                "hit_pct": 100.0 * (store.hits - store_hits) / max(
                    store.lookups - store_lookups, 1),
                "bytes": store.size_bytes(),
            }
        finally:
            store.close()
            session.close()
        return records, cache_hit_pct, store_stats

    def close(self) -> None:
        self.session.close()


def make_workload(name: str, seed: int, scratch: str, part: int = 0):
    """``part`` > 0 gives ``edit-churn`` an independent edit stream; cold
    workloads analyze the same programs in every part."""
    kind = EditWorkload if name == "edit-churn" else ColdWorkload
    return kind(name, seed, scratch, part)


# ---------------------------------------------------------------------------
# the two run modes
# ---------------------------------------------------------------------------

def digest_mismatch(workload) -> Optional[bool]:
    """Whether the run's stream digests differ from the recorded ones;
    ``None`` when none are recorded for this seed."""
    recorded = recorded_digests(workload.name, workload.reference_key)
    if recorded is None:
        return None
    return recorded != workload.stream


def digest_note(mismatch: Optional[bool]) -> str:
    if mismatch is None:
        return "not recorded for this seed"
    return "MISMATCH" if mismatch else "match"


def measure_part(args, scratch: str) -> Dict[str, object]:
    """One part of an untraced run, in its own process: set up once, time
    units for ``args.seconds``, check them; returns raw figures, times at
    nominal host speed."""
    workload = make_workload(args.workload, args.seed, scratch, args.part)
    # imports count as measured: loading modules follows the host's speed
    # phases less than the probe loop does, and scaling them too widened
    # the spread of setup_s over ten chain-loops runs from 0.06 to 0.19
    imports = time.perf_counter() - _START
    started = time.perf_counter()
    setup_seconds = workload.setup()
    set_up = time.perf_counter()
    PROBE.sample(MIN_PROBES)
    setup_seconds = imports + setup_seconds / PROBE.slowness(started, set_up)
    records = workload.untraced(args.seconds, -(-MIN_UNITS // PARTS))
    workload.close()
    failed = workload.failures(records) | workload.audit(records)
    mismatch = digest_mismatch(workload)
    if mismatch:
        failed = set(range(len(records)))
    instructions = workload.instructions()
    return {
        "setup_s": setup_seconds,
        "latencies": [record.seconds for record in records],
        "slowness": [record.wall / record.seconds for record in records],
        "instructions": sum(instructions[record.name] for record in records),
        "no_alias": sum(record.no_alias for record in records),
        "queries": sum(record.queries for record in records),
        "peak_rss_mb": records.peak_rss_mb,
        "failed": len(failed),
        "digest": digest_note(mismatch),
    }


def end_to_end(args, _scratch: str):
    """The untraced run: ``PARTS`` processes one after another, each with
    its own set-up and a share of the seconds, pooled into one result, so
    that no single process's memory layout or slow spell sets the figures.
    Returns ``(metrics, attempted, failed, notes)``."""
    parts = []
    for part in range(PARTS):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds / PARTS), "--trace", "0",
             "--part", str(part)],
            capture_output=True, text=True, timeout=PART_TIMEOUT)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise SystemExit("perfbench: part {} failed".format(part))
        parts.append(json.loads(completed.stdout.splitlines()[-1]))
    latencies = [seconds for part in parts for seconds in part["latencies"]]
    attempted = len(latencies)
    failed = sum(part["failed"] for part in parts)
    metrics = {
        "setup_s": statistics.median(part["setup_s"] for part in parts),
        "insts_per_s": sum(part["instructions"] for part in parts)
                       / sum(latencies),
        "unit_ms_p50": percentile(latencies, 50) * 1000.0,
        "unit_ms_p90": percentile(latencies, 90) * 1000.0,
        "peak_rss_mb": statistics.median(part["peak_rss_mb"] for part in parts),
        "noalias_pct": 100.0 * sum(part["no_alias"] for part in parts)
                       / max(sum(part["queries"] for part in parts), 1),
    }
    notes = {
        "units": attempted,
        "failed_frac": failed / attempted,
        "host_slowness": statistics.median(
            slowness for part in parts for slowness in part["slowness"]),
        "reference_digest": " ".join(part["digest"] for part in parts),
    }
    return metrics, attempted, failed, notes


def per_layer(args, scratch: str):
    """The traced run: ``(metrics, attempted, failed, notes)``."""
    workload = make_workload(args.workload, args.seed, scratch)
    workload.setup()
    untraced = workload.untraced(args.seconds / 2.0, 1)
    recorder = SpanRecorder()
    counters = pipeline.Counters()
    traced, cache_hit_pct, store_stats = workload.traced(
        untraced, recorder, counters)
    workload.close()
    twins_differ = {len(untraced) + index
                    for index, (plain, twin) in enumerate(zip(untraced, traced))
                    if twin.digest is None or twin.digest != plain.digest}
    failed = (workload.failures(untraced) | workload.audit(untraced)
              | twins_differ)
    attempted = len(untraced) + len(traced)
    mismatch = digest_mismatch(workload)
    if mismatch:
        failed = set(range(attempted))

    units = len(traced)
    instructions = workload.instructions()
    tokens = workload.tokens()
    unit_spans = [span for span in recorder.spans if span.name == "unit"]
    slowness = {span.unit: PROBE.slowness(span.start,
                                          span.start + span.duration)
                for span in unit_spans}
    selves = self_by_name(recorder.spans, slowness)
    unit_seconds = sum(span.duration / slowness[span.unit]
                       for span in unit_spans)

    def self_s(*names: str) -> float:
        return sum(selves.get(name, 0.0) for name in names)

    def per_unit(*names: str) -> float:
        return self_s(*names) / units

    def share(*names: str) -> float:
        return 100.0 * self_s(*names) / unit_seconds

    undecided = sum(record.pairs[1] for record in untraced)
    store_stats = store_stats or {"hit_pct": 0.0, "bytes": 0}
    metrics = {
        "frontend.parse_s": per_unit("frontend.parse"),
        "frontend.lower_s": per_unit("frontend.lower"),
        "frontend.tokens_per_s": sum(tokens[r.name] for r in traced)
                                 / self_s("frontend.parse"),
        "ir.mem2reg_s": per_unit("ir.mem2reg"),
        "ir.verify_s": per_unit("ir.verify"),
        "ir.instructions": sum(instructions[r.name] for r in traced) / units,
        "essa.convert_s": per_unit("essa.convert"),
        "essa.copies": counters.get("essa.copies", 0) / units,
        "rangeanalysis.solve_s": per_unit("rangeanalysis.solve"),
        "rangeanalysis.evaluations":
            counters.get("rangeanalysis.evaluations", 0) / units,
        "rangeanalysis.reused_components":
            counters.get("rangeanalysis.reused_components", 0) / units,
        "lessthan.build_s": per_unit("lessthan.build"),
        "lessthan.constraints": counters.get("lessthan.constraints", 0) / units,
        "lessthan.worklist_pops":
            counters.get("lessthan.worklist_pops", 0) / units,
        "alias.basicaa_s": per_unit("alias.basicaa"),
        "alias.lt_s": per_unit("alias.lt"),
        "alias.chain_s": per_unit("alias.chain"),
        "alias.pairs": sum(record.pairs[0] for record in untraced)
                       / len(untraced),
        "alias.lt_yield_pct": 100.0 * sum(record.pairs[2] for record in untraced)
                              / max(undecided, 1),
        "disambig.memoized_values": sum(r.memoized for r in untraced)
                                    / len(untraced),
        "disambig.truncated_classes": sum(r.truncated for r in untraced)
                                      / len(untraced),
        "passes.refresh_s": per_unit("passes.refresh"),
        "passes.cache_hit_pct": cache_hit_pct,
        "engine.evaluate_s": per_unit("engine.evaluate"),
        "store.get_s": per_unit("store.get"),
        "store.put_s": per_unit("store.put"),
        "store.hit_pct": store_stats["hit_pct"],
        "store.bytes": store_stats["bytes"],
        "verify.audit_s": workload.audit_seconds,
        "share.frontend_pct": share("frontend.parse", "frontend.lower",
                                    "ir.mem2reg", "ir.verify"),
        "share.solver_pct": share("essa.convert", "rangeanalysis.solve",
                                  "lessthan.build"),
        "share.alias_pct": share("alias.basicaa", "alias.lt", "alias.chain"),
        "share.store_pct": share("store.get", "store.put"),
        "trace.coverage_pct": 100.0 - share("unit"),
        "trace.overhead_pct":
            100.0 * (sum(r.seconds for r in traced)
                     - sum(r.seconds for r in untraced))
            / sum(r.seconds for r in untraced),
    }
    trace_path = os.path.join(OUT_DIR, "trace-{}-{}.json".format(
        args.workload, args.seed))
    write_trace(trace_path, recorder.spans)
    notes = {
        "units": attempted,
        "traced_units": units,
        "failed_frac": len(failed) / attempted,
        "reference_digest": digest_note(mismatch),
        "traced_digest": "differs from untraced" if twins_differ
                         else "equals untraced",
        "trace": os.path.relpath(trace_path, ROOT),
    }
    return metrics, attempted, len(failed), notes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one part of an untraced run and print its raw figures
    parser.add_argument("--part", type=int, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.part is not None:
            print(json.dumps(measure_part(args, scratch)))
            return 0
        if args.trace:
            metrics, attempted, failed, notes = per_layer(args, scratch)
            units = dict(LAYER_UNITS)
        else:
            metrics, attempted, failed, notes = end_to_end(args, scratch)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("perfbench {} seed={} trace={}".format(
        args.workload, args.seed, args.trace))
    for name, value in metrics.items():
        print("  {:<34} {:>16.6g} {}".format(name, value, units[name]))
    for name, value in notes.items():
        print("  {:<34} {}".format(name, value))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


#: units of the per-layer metrics, in the order they are printed.
LAYER_UNITS = (
    ("frontend.parse_s", "s"), ("frontend.lower_s", "s"),
    ("frontend.tokens_per_s", "tokens/s"),
    ("ir.mem2reg_s", "s"), ("ir.verify_s", "s"), ("ir.instructions", "count"),
    ("essa.convert_s", "s"), ("essa.copies", "count"),
    ("rangeanalysis.solve_s", "s"), ("rangeanalysis.evaluations", "count"),
    ("rangeanalysis.reused_components", "count"),
    ("lessthan.build_s", "s"), ("lessthan.constraints", "count"),
    ("lessthan.worklist_pops", "count"),
    ("alias.basicaa_s", "s"), ("alias.lt_s", "s"), ("alias.chain_s", "s"),
    ("alias.pairs", "count"), ("alias.lt_yield_pct", "%"),
    ("disambig.memoized_values", "count"),
    ("disambig.truncated_classes", "count"),
    ("passes.refresh_s", "s"), ("passes.cache_hit_pct", "%"),
    ("engine.evaluate_s", "s"),
    ("store.get_s", "s"), ("store.put_s", "s"), ("store.hit_pct", "%"),
    ("store.bytes", "bytes"),
    ("verify.audit_s", "s"),
    ("share.frontend_pct", "%"), ("share.solver_pct", "%"),
    ("share.alias_pct", "%"), ("share.store_pct", "%"),
    ("trace.coverage_pct", "%"), ("trace.overhead_pct", "%"),
)


if __name__ == "__main__":
    sys.exit(main())
