#!/usr/bin/env bash
# The repo's demos and end-to-end smoke checks, one function per row, each
# command line spelled once. `make NAME-demo` runs `scripts/smoke.sh NAME`;
# CI's matrix job runs `scripts/smoke.sh --tests NAME`, which also runs the
# row's unit tests under the race detector; `scripts/smoke.sh list` names
# the rows. Scratch output goes to a temporary directory; only the files a
# demo tells the reader to open (trace.json, metrics_demo.*) land in the
# working directory.
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
tests=
if [ "${1:-}" = --tests ]; then tests=1; shift; fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

dsmrun() { $GO run ./cmd/dsmrun "$@"; }
dsmbench() { $GO run ./cmd/dsmbench "$@"; }
unit() { [ -z "$tests" ] || $GO test "$@"; }
ok() { echo "ok: $*"; }

# pcmp FLAG... -- CMD...: run CMD at -parallel 1 and at -parallel 8 with each
# FLAG (-csv, -prof-csv, ...) naming a fresh file, and require stdout and
# every file to be byte-identical. The -parallel 1 files stay in $tmp as
# p1FLAG for further checks.
pcmp() {
	local flags=() p f
	while [ "$1" != -- ]; do flags+=("$1"); shift; done
	shift
	for p in 1 8; do
		local files=()
		for f in "${flags[@]}"; do files+=("$f" "$tmp/p$p$f"); done
		"$@" -parallel $p "${files[@]}" >"$tmp/p$p.out" 2>/dev/null
	done
	cmp "$tmp/p1.out" "$tmp/p8.out"
	for f in "${flags[@]}"; do cmp "$tmp/p1$f" "$tmp/p8$f"; done
	ok "stdout and ${flags[*]} byte-identical at -parallel 1 and 8"
}

table3=(-exp table3 -size small -nodes 4)
lu_hlrc=(-app lu -protocol hlrc -block 4096)
grid='none;lossy:drop=0.03,seed=5;jittery:jitter=30us,dup=0.01,seed=11'

# The parallel sweep engine, under the race detector.
sweep() {
	unit -race ./internal/sweep ./internal/harness .
	pcmp -csv -- $GO run -race ./cmd/dsmbench "${table3[@]}"
}

# A sample execution trace from the quickstart example.
trace() {
	$GO run ./examples/quickstart -trace-json trace.json
	python3 -c "import json; json.load(open('trace.json'))"
	ok "wrote trace.json — open it at https://ui.perfetto.dev"
}

# The virtual-time sampler on one Ocean-Rowwise run (phase breakdown on
# stdout, series as CSV, the run record as one JSON line), the CSV and the
# records of a sweep across parallelism, and the live Prometheus endpoint
# of a finished sweep.
metrics() {
	unit -race ./internal/sweep ./internal/metrics
	local jsonl='import json,sys; [json.loads(l) for l in open(sys.argv[1])]'
	rm -f metrics_demo.jsonl
	dsmrun -app ocean-rowwise -protocol hlrc -block 4096 -nodes 4 -sample-every 100us \
		-sample-csv metrics_demo.csv -record metrics_demo.jsonl
	python3 -c "$jsonl" metrics_demo.jsonl
	ok "wrote metrics_demo.csv and metrics_demo.jsonl (the run's full result as one JSON line)"
	pcmp -sample-csv -record -- dsmrun -app lu,fft -protocol sc,hlrc -block 256,4096 -nodes 4 -sample-every 200us
	python3 -c "$jsonl" "$tmp/p1-record"
	$GO build -o "$tmp/dsmbench" ./cmd/dsmbench # a binary of our own, so the kill below reaches it
	# Scrape in the -metrics-linger window, once fig1's table is on stdout
	# (water-spatial is its last row): by then every point has finished and
	# the render has looked each one up again through the memo.
	"$tmp/dsmbench" -exp fig1 -size small -nodes 4 -metrics-addr 127.0.0.1:9101 -metrics-linger 60s >"$tmp/fig1.txt" 2>/dev/null &
	local pid=$! i total
	for i in $(seq 1 300); do
		grep -q '^water-spatial  *hlrc ' "$tmp/fig1.txt" && break
		sleep 0.2
	done
	curl -sf http://127.0.0.1:9101/metrics -o "$tmp/metrics.txt" || true
	kill $pid 2>/dev/null || true
	total=$(awk '$1 == "dsmsim_sweep_points_total" {print $2}' "$tmp/metrics.txt")
	test -n "$total" && grep -qx "dsmsim_sweep_points_completed $total" "$tmp/metrics.txt"
	# Exposition format: every non-comment line is "name[{labels}] value".
	if grep -vE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+$)' "$tmp/metrics.txt" | grep .; then exit 1; fi
	# Each series once: Prometheus rejects a repeated sample.
	if grep -v '^#' "$tmp/metrics.txt" | cut -d' ' -f1 | sort | uniq -d | grep .; then exit 1; fi
	ok "live /metrics endpoint serves valid Prometheus text, $total points each once"
}

# Deterministic fault injection: a verified LU run at 1% loss, the
# degradation table, and a seeded lossy run replayed byte for byte.
faults() {
	unit -race ./internal/faults ./internal/network ./internal/sweep .
	dsmrun -app lu -protocol sc -block 4096 -nodes 4 -faults 'drop=0.01,seed=1'
	dsmbench -exp degradation -nodes 4 -size small -progress=false
	local a
	for a in a b; do dsmrun "${lu_hlrc[@]}" -nodes 4 -faults 'drop=0.02,seed=3' >"$tmp/lossy_$a"; done
	cmp "$tmp/lossy_a" "$tmp/lossy_b"
	grep -q reliability "$tmp/lossy_a"
	ok "seeded lossy run replays byte-identically"
}

# The sharing-pattern profiler: Volrend-Original's per-region report (the
# image plane shows the paper's false sharing), false sharing vs
# granularity for both task shapes, and the profile CSV across parallelism.
prof() {
	unit -race ./internal/shareprof ./internal/sweep .
	dsmrun -app volrend-original -protocol hlrc -block 4096 -nodes 16 -prof
	dsmbench -exp sharing -nodes 16 -size small -progress=false
	pcmp -prof-csv -- dsmbench -exp table9 -size small -nodes 4
	head -1 "$tmp/p1-prof-csv" | grep -q '^app,protocol,block,notify,nodes,region,'
	grep -q ',(total),' "$tmp/p1-prof-csv"
}

# The critical-path profiler: the recovered path equals completion time, a
# what-if prints the path's prediction next to the re-simulated truth, the
# crit CSV across parallelism, and the path-composition table.
crit() {
	unit -race ./internal/critpath
	unit -race -run 'Crit|WhatIf|ForkTrace' ./internal/core ./internal/sweep
	dsmrun "${lu_hlrc[@]}" -nodes 8 -crit -crit-top 3 | tee "$tmp/crit.txt"
	local total path
	total=$(awk '/parallel time/ {print $3}' "$tmp/crit.txt")
	path=$(awk '/critical path:/ {print $3}' "$tmp/crit.txt")
	test -n "$total" && test "$total" = "$path"
	ok "critical path $path equals completion time $total"
	dsmrun "${lu_hlrc[@]}" -nodes 8 -whatif msg=0.5 | tee "$tmp/whatif.txt"
	grep -q path-predicted "$tmp/whatif.txt" && grep -q re-simulated "$tmp/whatif.txt"
	pcmp -crit-csv -- dsmbench "${table3[@]}"
	head -1 "$tmp/p1-crit-csv" | grep -q '^app,protocol,block,notify,nodes,crit_total_ns,'
	dsmbench -exp critpath -nodes 16 -size small -progress=false
}

# Past the old 64-node ceiling: a verified FFT + LU sweep at 256 nodes under
# every protocol, then one verified 1024-node LU run.
scale() {
	unit -race -run 'Copyset|Table|Homes' ./internal/proto
	unit -run 'TestSweepCSVGolden|TestVerified1024|TestScaleFootprint' .
	dsmrun -app fft,lu -protocol all -block 4096 -nodes 256
	dsmrun "${lu_hlrc[@]}" -nodes 1024
	ok "verified runs at 256 and 1024 nodes completed"
}

# Checkpoint/fork warmup sharing: one fault-grid sweep over every app (three
# variants per configuration, plans gated on barrier 6) flat and forked —
# the forked run prints its speedup summary, and no point may run flat —
# with the printed table (all but the fork: line), CSV and sample CSV
# byte-identical.
fork() {
	unit -race -run 'Fork|Checkpoint|Memo|Resume|Refused' ./internal/core ./internal/sweep .
	unit -run TestAccessNoFaultZeroAlloc ./internal/core
	local v
	for v in "flat" "fork1 -fork -parallel 1" "fork8 -fork -parallel 8"; do
		set -- $v
		dsmrun -app all -protocol sc,hlrc -block 1024,4096 -nodes 4 -size small \
			-fault-grid "$grid" -fork-warmup 6 -sample-every 200us "${@:2}" \
			-csv "$tmp/$1.csv" -sample-csv "$tmp/$1.samples" >"$tmp/$1.out" 2>/dev/null
		grep -v '^fork:' "$tmp/$1.out" >"$tmp/$1.table" || true
		cmp "$tmp/flat.table" "$tmp/$1.table"
		cmp "$tmp/flat.csv" "$tmp/$1.csv"
		cmp "$tmp/flat.samples" "$tmp/$1.samples"
	done
	tail -1 "$tmp/fork1.out"
	grep -q ' 0 points ran flat' "$tmp/fork1.out" && grep -q ' 0 points ran flat' "$tmp/fork8.out"
	ok "forked sweep over every app: no point ran flat; table, CSV + sample CSV byte-identical to flat at -parallel 1 and 8"
}

# The timestamp-lease protocol: a verified lock-heavy run under tlc, every
# registered protocol verified at both granularity extremes, and the
# four-family comparison table.
tlc() {
	unit -race -short ./internal/proto/...
	dsmrun -app water-nsquared -protocol tlc -block 1024 -nodes 8
	dsmrun -app fft,water-nsquared -protocol all -block 64,4096 -nodes 4 -size small | tee "$tmp/all.txt"
	local p
	for p in sc dc swlrc hlrc tlc; do grep -q " $p " "$tmp/all.txt"; done
	ok "all registered protocols ran and verified"
	dsmbench -exp fourway -nodes 4 -size small -progress=false
}

# Ten seconds of fuzzing per parser of a flag string, and of the trace line
# encoder against its fmt oracle.
fuzz() {
	local t
	for t in "FuzzParse ./internal/faults" "FuzzParseStragglers ./internal/faults" \
		"FuzzParseScale ./internal/critpath" "FuzzGrid ./internal/cliflags" \
		"FuzzLineEncoder ./internal/trace"; do
		set -- $t
		$GO test -run '^$' -fuzz "^$1\$" -fuzztime 10s "$2"
	done
}

rows="sweep trace metrics faults prof crit scale fork tlc fuzz"
case " $rows list " in
*" ${1:-} "*) ;;
*) echo "usage: $0 [--tests] {${rows// /|}|list}" >&2; exit 2 ;;
esac
if [ "$1" = list ]; then echo $rows; else "$1"; fi
