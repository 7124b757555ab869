#!/usr/bin/env python3
"""Fails when a benchmark run allocates more objects than the ledger allows.

usage: scripts/check_mallocs.py RESULT.json WORKLOAD

RESULT.json holds the last stdout line of `bench/run.sh --workload WORKLOAD`.
Its mallocs_per_iter may exceed the newest reading BENCH_history.json has for
that workload (the `change` side of a paired entry or of a single reading) by
no more than the metric's bound in BENCHMARK.json. Run from the repo root.
"""
import json
import sys

METRIC = "mallocs_per_iter"


def newest_reading(history, workload):
    for entry in reversed(history):
        for section in ("workloads", "single_readings"):
            reading = entry.get(section, {}).get(workload, {})
            if isinstance(reading, dict) and METRIC in reading:
                change = reading[METRIC]["change"]
                value = change["median"] if isinstance(change, dict) else change
                return value, "PR %s" % entry.get("pr", "?")
    return None, None


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    result_path, workload = argv[1], argv[2]
    with open(result_path) as f:
        got = json.load(f)["metrics"][METRIC]["value"]
    with open("BENCHMARK.json") as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == METRIC)
    with open("BENCH_history.json") as f:
        ref, where = newest_reading(json.load(f), workload)
    if ref is None:
        sys.exit("check_mallocs: BENCH_history.json has no %s reading for %s" % (METRIC, workload))
    ceiling = ref * (1 + bound)
    verdict = "ok" if got <= ceiling else "FAIL"
    print("check_mallocs: %s %s %.1f, last recorded %.1f (%s), ceiling %.1f (+%g%%): %s"
          % (workload, METRIC, got, ref, where, ceiling, bound * 100, verdict))
    if got > ceiling:
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
