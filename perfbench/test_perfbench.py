"""Tests of the benchmark itself: its inputs, its arithmetic, its checks.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

_FINGERPRINT = """
import hashlib, sys
sys.path[:0] = [{here!r}, {src!r}]
import workloads
digest = hashlib.sha256()
for name, source in workloads.spec_mix(3) + workloads.chain_loops(3):
    digest.update((name + source).encode())
stream = workloads.EditStream(3)
for _ in range(20):
    name, source = next(stream)
    digest.update((name + source).encode())
print(digest.hexdigest())
"""


def _fingerprint_in_process():
    digest = hashlib.sha256()
    for name, source in workloads.spec_mix(3) + workloads.chain_loops(3):
        digest.update((name + source).encode())
    stream = workloads.EditStream(3)
    for _ in range(20):
        name, source = next(stream)
        digest.update((name + source).encode())
    return digest.hexdigest()


def test_generators_deterministic_across_processes():
    code = _FINGERPRINT.format(here=HERE, src=os.path.join(ROOT, "src"))
    prints = set()
    for _ in range(2):
        env = dict(os.environ, PYTHONHASHSEED="random")
        prints.add(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout.strip())
    assert prints == {_fingerprint_in_process()}


def test_chain_loops_have_an_odd_number_of_units():
    # the median of whole passes then falls inside one unit's latencies
    assert {len(workloads.chain_loops(seed)) % 2 for seed in range(4)} == {1}


def test_spec_mix_seed_zero_is_spec_sources():
    from repro.synth import spec_sources

    assert workloads.spec_mix(0) == spec_sources()
    assert workloads.spec_mix(1) != spec_sources()


def test_edits_change_exactly_one_literal():
    stream = workloads.EditStream(5)
    before = dict(stream.current)
    name, source = next(stream)
    old, new = before[name], source
    assert len(workloads._LITERAL.findall(old)) == len(
        workloads._LITERAL.findall(new))
    changed = [(a, b) for a, b in zip(workloads._LITERAL.findall(old),
                                      workloads._LITERAL.findall(new))
               if a != b]
    assert len(changed) == 1 and int(changed[0][1]) > int(changed[0][0])


def test_edits_of_a_program_step_by_the_golden_ratio():
    stream = workloads.EditStream(5)
    name = stream.base[0][0]
    place = stream._place[name]
    count = len(workloads._LITERAL.findall(stream.current[name]))
    edited = []
    while len(edited) < 4:
        before = stream.current[name]
        edit_name, after = next(stream)
        if edit_name == name:
            pairs = zip(workloads._LITERAL.findall(before),
                        workloads._LITERAL.findall(after))
            edited += [index for index, (a, b) in enumerate(pairs) if a != b]
    assert edited == [int(((place + k * workloads.GOLDEN) % 1.0) * count)
                      for k in range(4)]


def test_probe_scales_intervals_to_nominal_speed():
    probe = hostspeed.Probe()
    nominal = hostspeed.NOMINAL_S
    probe.starts = [0.0, 0.5, 1.0, 10.0, 10.5, 11.0, 11.5, 12.0]
    probe.seconds = [2 * nominal] * 3 + [nominal] * 5
    # a window of three probes widens to the two nearest after it
    assert probe.slowness(10.2, 10.4) == pytest.approx(1.0)
    assert probe.normalize(10.2, 0.2) == pytest.approx(0.2)
    # twice the nominal loop time halves the interval
    assert probe.slowness(0.2, 0.4) == pytest.approx(2.0)
    assert probe.normalize(0.2, 0.2) == pytest.approx(0.1)
    probe.sample(2)
    assert len(probe.seconds) == 10 and probe.spent > 0


def _hand_span(recorder, name, start, duration, parent):
    span = spans.Span(recorder, name, 0, parent)
    span.start, span.duration = start, duration
    recorder.spans.append(span)
    return span


def test_self_time_subtracts_child_coverage():
    recorder = spans.SpanRecorder()
    _hand_span(recorder, "unit", 0.0, 10.0, None)        # 0
    _hand_span(recorder, "parse", 1.0, 2.0, 0)           # 0: [1, 3]
    _hand_span(recorder, "lower", 2.0, 3.0, 0)           # 0: [2, 5] overlaps
    _hand_span(recorder, "solve", 9.0, 4.0, 0)           # 0: [9, 13] clipped
    _hand_span(recorder, "inner", 3.0, 1.0, 2)           # 2: [3, 4]
    assert spans.self_times(recorder.spans) == pytest.approx(
        [10.0 - 4.0 - 1.0, 2.0, 2.0, 4.0, 1.0])
    totals = spans.self_by_name(recorder.spans)
    assert totals["unit"] == pytest.approx(5.0)
    assert sum(totals.values()) == pytest.approx(14.0)


def test_recorder_nests_spans():
    recorder = spans.SpanRecorder()
    with recorder.span("unit"):
        with recorder.span("a"):
            pass
        with recorder.span("b"):
            with recorder.span("c"):
                pass
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("unit", None), ("a", 0), ("b", 0), ("c", 2)]
    assert all(own >= 0 for own in spans.self_times(recorder.spans))


def _main_json(argv):
    output = io.StringIO()
    with redirect_stdout(output):
        assert run.main(argv) == 0
    return output.getvalue(), json.loads(output.getvalue().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        text, result = _main_json(["--workload", "chain-loops", "--seed", "0",
                                   "--seconds", "0.05", "--trace", str(trace)])
        declared = {m["name"]: m["unit"] for m in benchmark[key]}
        assert {name: metric["unit"]
                for name, metric in result["metrics"].items()} == declared
        printed = {line.split()[0] for line in text.splitlines()[1:-1]}
        assert set(declared) <= printed
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= (run.MIN_UNITS if trace == 0 else 1)


def _part(monkeypatch, tmp_path, reference):
    monkeypatch.setattr(run, "REFERENCE_PATH", str(reference))
    args = run.parse_args(["--workload", "chain-loops", "--seed", "0",
                           "--seconds", "0.01", "--part", "0"])
    return run.measure_part(args, str(tmp_path))


def test_corrupted_digest_fails_every_unit(monkeypatch, tmp_path):
    clean = _part(monkeypatch, tmp_path, run.REFERENCE_PATH)
    assert clean["failed"] == 0 and clean["digest"] == "match"
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"digests": {"chain-loops": {"0": {
        "basicaa": "0" * 64, "lt": "0" * 64, "basicaa+lt": "0" * 64}}}}))
    corrupted = _part(monkeypatch, tmp_path, reference)
    assert corrupted["digest"] == "MISMATCH"
    assert corrupted["failed"] == len(corrupted["latencies"]) > 0


def test_exits_with_error_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spec-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=120)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
