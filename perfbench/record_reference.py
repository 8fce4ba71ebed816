#!/usr/bin/env python3
"""Record the verdict-stream digests that benchmark runs compare against.

    python3 perfbench/record_reference.py 0 7919 1 2 3

Sets ``digests[workload][seed]`` in ``reference.json`` for every workload
and each seed given (``seed.part`` for the further edit streams of an
``edit-churn`` run), keeping the rest of the file.  Record only on a commit
whose verdicts are known good: every later run is checked against them.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def stream_digests(workload: str, seed: int, part: int):
    os.makedirs(run.OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR)
    try:
        bench = run.make_workload(workload, seed, scratch, part)
        bench.setup()
        if workload == "edit-churn":
            bench.untraced(0, run.REFERENCE_EDITS)
        bench.close()
        return bench.stream
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv) -> int:
    with open(run.REFERENCE_PATH, encoding="utf-8") as handle:
        reference = json.load(handle)
    for seed in (int(arg) for arg in argv):
        for workload in run.WORKLOADS:
            # edit-churn parts edit independently; cold parts repeat part 0
            parts = run.PARTS if workload == "edit-churn" else 1
            for part in range(parts):
                bench_digests = reference["digests"].setdefault(workload, {})
                key = str(seed) if part == 0 else "{}.{}".format(seed, part)
                bench_digests[key] = stream_digests(workload, seed, part)
                print(workload, key, bench_digests[key])
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
