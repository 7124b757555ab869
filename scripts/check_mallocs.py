#!/usr/bin/env python3
"""Fails when a benchmark run allocates more than the ledger allows.

usage: scripts/check_mallocs.py RESULT.json WORKLOAD METRIC [METRIC...]

RESULT.json holds the last stdout line of `bench/run.sh --workload WORKLOAD
--seconds 10`. Each METRIC (mallocs_per_iter, alloc_mb_per_iter: both are
means over the run's iterations and, over ten seconds, repeat to within
0.8 %) may exceed the newest reading
BENCH_history.json has for that workload (the `change` side of a paired entry
or of a single reading) by no more than the metric's bound in BENCHMARK.json.
Run from the repo root.
"""
import json
import sys


def newest_reading(history, workload, metric):
    for entry in reversed(history):
        for section in ("workloads", "single_readings"):
            reading = entry.get(section, {}).get(workload, {})
            if isinstance(reading, dict) and metric in reading:
                change = reading[metric]["change"]
                value = change["median"] if isinstance(change, dict) else change
                return value, "PR %s" % entry.get("pr", "?")
    return None, None


def main(argv):
    if len(argv) < 4:
        sys.exit(__doc__)
    result_path, workload, metrics = argv[1], argv[2], argv[3:]
    with open(result_path) as f:
        result = json.load(f)["metrics"]
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    with open("BENCH_history.json") as f:
        history = json.load(f)
    failed = False
    for metric in metrics:
        got, bound = result[metric]["value"], bounds[metric]
        ref, where = newest_reading(history, workload, metric)
        if ref is None:
            sys.exit("check_mallocs: BENCH_history.json has no %s reading for %s" % (metric, workload))
        ceiling = ref * (1 + bound)
        verdict = "ok" if got <= ceiling else "FAIL"
        print("check_mallocs: %s %s %.1f, last recorded %.1f (%s), ceiling %.1f (+%g%%): %s"
              % (workload, metric, got, ref, where, ceiling, bound * 100, verdict))
        failed = failed or got > ceiling
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
