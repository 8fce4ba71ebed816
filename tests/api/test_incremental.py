"""``Session.update_source``: the incremental edit-compile-analyze loop.

The contract under test is *determinism first*: whatever the refresh layer
migrates and the solver reuses, the verdict stream of an incremental update
must be bit-identical to a cold solve of the same source — serially and
against a pooled (``workers=2``) cold run.
"""

import os

from repro.api import Session, UpdateResult

BASE = """
int a(int* v, int n) {
  int i;
  for (i = 0; i < n - 1; i++) { v[i] = v[i + 1] + 1; }
  return v[0];
}
int b(int* v, int n) {
  int y = a(v, n);
  if (y < n) { v[y] = y + 2; }
  return v[y];
}
int c(int* v, int n) {
  int z = b(v, n);
  if (z < 30) { z = z + 3; }
  return z;
}
int lone(int* p, int n) {
  int q = p[0];
  if (q < n) { p[q] = q + 1; }
  return p[q];
}
"""

EDITED = BASE.replace("v[i + 1] + 1", "v[i + 1] + 5")

SPECS = (("lt",), ("basicaa", "lt"))


def _verdicts(result):
    verdicts = {}
    for label in result.labels:
        for function_name, codes in result.verdicts(label).items():
            verdicts[(label, function_name)] = codes
    return verdicts


def test_update_source_matches_cold_solve():
    with Session() as session:
        session.update_source("m", BASE, SPECS)
        update = session.update_source("m", EDITED, SPECS)
    assert isinstance(update, UpdateResult)
    assert update.refresh.dirty == ["a"]
    with Session() as cold_session:
        cold = cold_session.evaluate_source("m", EDITED, SPECS)
    assert _verdicts(update.result) == _verdicts(cold)


def test_update_source_matches_pooled_cold_solve():
    with Session() as session:
        session.update_source("m", BASE, SPECS)
        update = session.update_source("m", EDITED, SPECS)
    with Session(workers=2) as pooled_session:
        pooled = pooled_session.run_workload(
            [("m", EDITED), ("m", EDITED)], specs=SPECS, store=False)
    assert pooled[0].payload["pid"] != os.getpid()  # ran in a pool worker
    for result in pooled:
        assert _verdicts(update.result) == _verdicts(result)


def test_update_source_repeated_edits_stay_consistent():
    sources = [BASE, EDITED, EDITED.replace("y + 2", "y + 4"), BASE]
    with Session() as session:
        for source in sources:
            update = session.update_source("m", source, SPECS)
            with Session() as cold_session:
                cold = cold_session.evaluate_source("m", source, SPECS)
            assert _verdicts(update.result) == _verdicts(cold)
    # Refresh diffs against the *previous* update: reverting to BASE undoes
    # the edits to a (second source) and b (third source).
    assert update.refresh.dirty == ["a", "b"]


def test_update_source_hits_the_store_warm(tmp_path):
    store_path = str(tmp_path / "store.sqlite")
    with Session(store_path=store_path) as session:
        session.update_source("m", BASE, (("lt",),))
        before = dict(session.cache.statistics.by_kind["fingerprint"])
        update = session.update_source("m", EDITED, (("lt",),))
        after = session.cache.statistics.by_kind["fingerprint"]
    # lt is region-scoped: the three untouched functions (b, c, lone) hit
    # their fingerprint-keyed entries; only the edited leaf misses.
    assert after["hits"] - before["hits"] == 3
    assert after["misses"] - before["misses"] == 1
    assert update.refresh.migrated >= 3


def test_update_result_repr_mentions_blast_radius():
    with Session() as session:
        session.update_source("m", BASE, (("lt",),))
        update = session.update_source("m", EDITED, (("lt",),))
    text = repr(update)
    assert "dirty=1" in text and "clean=3" in text


def test_stats_cli_reports_fingerprint_section(tmp_path, capsys):
    from repro.api.cli import main

    source_file = tmp_path / "m.c"
    source_file.write_text(BASE)
    assert main(["stats", str(source_file)]) == 0
    out = capsys.readouterr().out
    assert "[fingerprints]" in out
    assert "call_edges" in out


def test_edits_release_earlier_generations():
    """Each edit's range analyses are seeded from the previous generation's;
    once solved they must not keep that generation (and, through it, every
    earlier one) alive."""
    import gc
    import weakref

    sources = [BASE.replace("v[i + 1] + 1", "v[i + 1] + {}".format(k))
               for k in range(1, 5)]
    with Session() as session:
        session.update_source("m", sources[0], SPECS)
        session.update_source("m", sources[1], SPECS)
        generation = [weakref.ref(analysis) for analysis in
                      list(session.cache._ranges.values())
                      + list(session.cache._pre_ranges.values())]
        assert generation
        session.update_source("m", sources[2], SPECS)
        session.update_source("m", sources[3], SPECS)
        gc.collect()
        assert [ref for ref in generation if ref() is not None] == []
