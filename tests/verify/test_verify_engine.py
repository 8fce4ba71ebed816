"""The ``REPRO_VERIFY`` knob through the engine and the Session facade.

``post`` verifies after every fresh solve, in-process or inside a pool
worker; the report ships back through the unit payload (absorbed into the
coordinator's counters, never leaking into verdict output), and error
findings raise :class:`VerifyError` on the coordinator either way.
``Session.verify()`` is the programmatic surface, and ``statistics()``
exposes the accumulated ``[verify]`` counters.
"""

import json
import os

import pytest

from repro.api import ReproConfig, Session
from repro.engine import AnalysisStore
from repro.engine import worker as worker_module
from repro.verify import COUNTERS, VerificationReport, VerifyError

SOURCE = """
int sum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""


@pytest.fixture(autouse=True)
def fresh_counters():
    COUNTERS.reset()
    yield
    COUNTERS.reset()


def _verdict_map(result):
    return {label: result.verdicts(label) for label in result.labels}


def test_post_mode_verifies_in_process_solves():
    with Session(ReproConfig(verify="post", workers=0)) as session:
        session.run_workload([("m", SOURCE)], specs=(("lt",),), store=False)
    assert COUNTERS.runs >= 1
    assert COUNTERS.checks > 0
    assert COUNTERS.errors == 0


def test_off_mode_runs_no_checks():
    with Session(ReproConfig(verify="off", workers=0)) as session:
        session.run_workload([("m", SOURCE)], specs=(("lt",),), store=False)
    assert COUNTERS.runs == 0


def test_post_mode_does_not_change_verdicts():
    with Session(ReproConfig(verify="off", workers=0)) as session:
        plain = session.run_workload([("m", SOURCE)], store=False)
    with Session(ReproConfig(verify="post", workers=0)) as session:
        checked = session.run_workload([("m", SOURCE)], store=False)
    assert _verdict_map(plain[0]) == _verdict_map(checked[0])
    assert plain[0].statistics.as_dict() == checked[0].statistics.as_dict()


def test_post_mode_verifies_inside_pool_workers():
    units = [("m{}".format(i), SOURCE) for i in range(3)]
    with Session(ReproConfig(verify="post", workers=2)) as session:
        results = session.run_workload(units, specs=(("lt",),), store=False)
    # Every unit was verified in its worker; the coordinator counted each
    # shipped report once...
    assert all(result.payload["pid"] != os.getpid() for result in results)
    assert COUNTERS.runs == len(units)
    assert COUNTERS.checks > 0
    assert COUNTERS.errors == 0
    # ...and popped it from the payload, keeping verdict output clean.
    for result in results:
        assert "verify" not in result.payload


@pytest.mark.parametrize("workers", [0, 2])
def test_forged_verification_failure_raises_on_the_coordinator(
        monkeypatch, tmp_path, workers):
    """A failed self-check raises ``VerifyError`` — not a pool error — and
    nothing of the failed unit reaches the store."""
    def forged(_sraa):
        report = VerificationReport()
        report.functions = 1
        report.add("lt", "error", "sum", "i", "forged finding")
        return report

    # Forked pool workers inherit the patch.
    monkeypatch.setattr(worker_module, "verify_alias_analysis", forged)
    store_path = str(tmp_path / "store.sqlite")
    units = [("m{}".format(i), SOURCE) for i in range(2)]
    with Session(ReproConfig(verify="post", workers=workers,
                             store_path=store_path)) as session:
        with pytest.raises(VerifyError, match="REPRO_VERIFY=post") as caught:
            session.run_workload(units, specs=(("lt",),))
    assert [d.message for d in caught.value.report.errors] == ["forged finding"]
    with AnalysisStore(store_path, readonly=True) as store:
        assert len(store) == 0


def test_session_verify_and_statistics_counters():
    with Session() as session:
        unit = session.compile(SOURCE, name="m")
        report = unit.analyze().verify()
        assert report.ok
        assert report.functions == 1
        merged = session.verify()
        assert merged.ok
        stats = session.statistics()
    assert stats["verify"]["runs"] == COUNTERS.runs
    assert stats["verify"]["errors"] == 0
    assert stats["verify"]["checks"] > 0


def test_verify_report_is_json_serializable():
    with Session() as session:
        report = session.compile(SOURCE, name="m").analyze().verify()
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["functions"] == 1
    assert payload["diagnostics"] == []
