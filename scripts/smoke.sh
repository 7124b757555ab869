#!/usr/bin/env bash
# The repo's demos and end-to-end smoke checks, one function per row, each
# command line spelled once. `make NAME-demo` runs `scripts/smoke.sh NAME`;
# CI's matrix job runs `scripts/smoke.sh --tests NAME`, which also runs the
# row's unit tests under the race detector; `scripts/smoke.sh list` names
# the rows. Scratch output goes to a temporary directory; only the files a
# demo tells the reader to open (trace.txt, trace.json, metrics_demo.*)
# land in the working directory.
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
tests=
if [ "${1:-}" = --tests ]; then tests=1; shift; fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

dsmrun() { $GO run ./cmd/dsmrun "$@"; }
unit() { [ -z "$tests" ] || $GO test "$@"; }
ok() { echo "ok: $*"; }

# pcmp CMD...: run CMD at -parallel 1 and at -parallel 8, each with a fresh
# -record file, and require stdout and the record to be byte-identical.
# The -parallel 1 stdout and record stay in $tmp as p1.out and p1.jsonl for
# further checks.
pcmp() {
	local p
	for p in 1 8; do
		rm -f "$tmp/p$p.jsonl"
		"$@" -parallel $p -record "$tmp/p$p.jsonl" >"$tmp/p$p.out" 2>/dev/null
	done
	cmp "$tmp/p1.out" "$tmp/p8.out"
	cmp "$tmp/p1.jsonl" "$tmp/p8.jsonl"
	ok "stdout and -record byte-identical at -parallel 1 and 8"
}

table3=(-exp table3 -size small -nodes 4)
lu_hlrc=(-app lu -protocol hlrc -block 4096)
grid='none;lossy:drop=0.03,seed=5,start=6;jittery:jitter=30us,dup=0.01,seed=11,start=6'

# The parallel sweep engine, under the race detector.
sweep() {
	unit -race ./internal/sweep ./internal/harness .
	pcmp $GO run -race ./cmd/dsmrun "${table3[@]}"
}

# A sample execution trace from the quickstart example, and the trace of
# one dsmrun point (its baseline is never traced), each projected to
# Chrome JSON.
trace() {
	$GO run ./examples/quickstart -trace trace.txt
	dsmrun -project chrome trace.txt >trace.json
	python3 -c "import json; json.load(open('trace.json'))"
	dsmrun -app lu -nodes 4 -trace "$tmp/lu.txt" >/dev/null
	dsmrun -project chrome "$tmp/lu.txt" >"$tmp/lu.json"
	python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$tmp/lu.json"
	ok "wrote trace.txt and its projection trace.json — open that at https://ui.perfetto.dev"
}

# The virtual-time sampler on one Ocean-Rowwise run (phase breakdown on
# stdout, the run record as one JSON line, its series projected as CSV),
# the records of a sweep across parallelism, and the live Prometheus
# endpoint of a finished sweep.
metrics() {
	unit -race ./internal/sweep ./internal/metrics
	local jsonl='import json,sys; [json.loads(l) for l in open(sys.argv[1])]'
	rm -f metrics_demo.jsonl
	dsmrun -app ocean-rowwise -protocol hlrc -block 4096 -nodes 4 -sample-every 100us \
		-record metrics_demo.jsonl
	python3 -c "$jsonl" metrics_demo.jsonl
	dsmrun -project sample metrics_demo.jsonl >metrics_demo.csv
	ok "wrote metrics_demo.jsonl (the run's full result as one JSON line) and metrics_demo.csv (its sample table)"
	pcmp dsmrun -app lu,fft -protocol sc,hlrc -block 256,4096 -nodes 4 -sample-every 200us
	python3 -c "$jsonl" "$tmp/p1.jsonl"
	$GO build -o "$tmp/dsmrun" ./cmd/dsmrun # a binary of our own, so the kill below reaches it
	# Scrape in the -metrics-linger window, once fig1's table is on stdout
	# (water-spatial is its last row): by then every point has finished and
	# the render has looked each one up again through the memo.
	"$tmp/dsmrun" -exp fig1 -size small -nodes 4 -metrics-addr 127.0.0.1:9101 -metrics-linger 60s >"$tmp/fig1.txt" 2>/dev/null &
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
# degradation table (its runs and records across parallelism), and a
# seeded lossy run replayed byte for byte.
faults() {
	unit -race ./internal/faults ./internal/network ./internal/sweep .
	dsmrun -app lu -protocol sc -block 4096 -nodes 4 -faults 'drop=0.01,seed=1'
	pcmp dsmrun -exp degradation -nodes 4 -size small
	cat "$tmp/p1.out"
	local a
	for a in a b; do dsmrun "${lu_hlrc[@]}" -nodes 4 -faults 'drop=0.02,seed=3' >"$tmp/lossy_$a"; done
	cmp "$tmp/lossy_a" "$tmp/lossy_b"
	grep -q reliability "$tmp/lossy_a"
	ok "seeded lossy run replays byte-identically"
}

# The sharing-pattern profiler: Volrend-Original's per-region report (the
# image plane shows the paper's false sharing), false sharing vs
# granularity for both task shapes (its runs and records across
# parallelism), and the profile table of a record across parallelism.
prof() {
	unit -race ./internal/shareprof ./internal/sweep .
	dsmrun -app volrend-original -protocol hlrc -block 4096 -nodes 16 -prof
	pcmp dsmrun -exp sharing -nodes 16 -size small
	cat "$tmp/p1.out"
	pcmp dsmrun -exp table9 -size small -nodes 4 -prof
	dsmrun -project prof "$tmp/p1.jsonl" >"$tmp/prof.csv"
	head -1 "$tmp/prof.csv" | grep -q '^app,protocol,block,notify,nodes,region,'
	grep -q ',(total),' "$tmp/prof.csv"
}

# The critical-path profiler: the recovered path equals completion time, a
# what-if prints the path's prediction next to the re-simulated truth and
# records its three runs (baseline, point, twin), the crit table of a
# record across parallelism, and the path-composition table.
crit() {
	unit -race ./internal/critpath
	unit -race -run 'Crit|WhatIf|ForkTrace' ./internal/core ./internal/sweep
	dsmrun "${lu_hlrc[@]}" -nodes 8 -crit -crit-top 3 | tee "$tmp/crit.txt"
	local total path
	total=$(awk '/parallel time/ {print $3}' "$tmp/crit.txt")
	path=$(awk '/critical path:/ {print $3}' "$tmp/crit.txt")
	test -n "$total" && test "$total" = "$path"
	ok "critical path $path equals completion time $total"
	dsmrun "${lu_hlrc[@]}" -nodes 8 -whatif msg=0.5 -record "$tmp/whatif.jsonl" | tee "$tmp/whatif.txt"
	grep -q path-predicted "$tmp/whatif.txt" && grep -q re-simulated "$tmp/whatif.txt"
	python3 -c "import json,sys; assert len([json.loads(l) for l in open(sys.argv[1])]) == 3" "$tmp/whatif.jsonl"
	pcmp dsmrun "${table3[@]}" -crit
	dsmrun -project crit "$tmp/p1.jsonl" >"$tmp/crit.csv"
	head -1 "$tmp/crit.csv" | grep -q '^app,protocol,block,notify,nodes,crit_total_ns,'
	dsmrun -exp critpath -nodes 16 -size small 2>"$tmp/critpath.err"
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
# with the printed table (all but the fork: line) and the record
# byte-identical, and the record's sample table carrying the fault column.
fork() {
	unit -race -run 'Fork|Checkpoint|Memo|Resume|Refused|Digest' ./internal/core ./internal/sweep .
	unit -race ./internal/digest
	unit -run TestAccessNoFaultZeroAlloc ./internal/core
	local v
	for v in "flat" "fork1 -fork -parallel 1" "fork8 -fork -parallel 8"; do
		set -- $v
		dsmrun -app all -protocol sc,hlrc -block 1024,4096 -nodes 4 -size small \
			-fault-grid "$grid" -sample-every 200us "${@:2}" \
			-record "$tmp/$1.jsonl" >"$tmp/$1.out" 2>/dev/null
		grep -v '^fork:' "$tmp/$1.out" >"$tmp/$1.table" || true
		cmp "$tmp/flat.table" "$tmp/$1.table"
		cmp "$tmp/flat.jsonl" "$tmp/$1.jsonl"
	done
	tail -1 "$tmp/fork1.out"
	grep -q ' 0 points ran flat' "$tmp/fork1.out" && grep -q ' 0 points ran flat' "$tmp/fork8.out"
	dsmrun -project sample "$tmp/flat.jsonl" >"$tmp/flat.samples"
	head -1 "$tmp/flat.samples" | grep -q '^app,protocol,block,notify,nodes,fault,t_ns,'
	ok "forked sweep over every app: no point ran flat; table and record byte-identical to flat at -parallel 1 and 8"
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
	dsmrun -exp fourway -nodes 4 -size small 2>"$tmp/fourway.err"
}

# Ten seconds of fuzzing per parser of a flag string, of the record file
# reader, of the trace line encoder against its fmt oracle, and of the
# Chrome projection of a line trace. A new
# input is minimized for at most a second, so a large seed (a record line
# is kilobytes) spends the ten seconds fuzzing rather than minimizing.
fuzz() {
	local t
	for t in "FuzzParse ./internal/faults" "FuzzParseStragglers ./internal/faults" \
		"FuzzParseScale ./internal/critpath" "FuzzGrid ./cmd/dsmrun" \
		"FuzzReadRecords ./internal/sweep" "FuzzLineEncoder ./internal/trace" \
		"FuzzChrome ./internal/trace"; do
		set -- $t
		$GO test -run '^$' -fuzz "^$1\$" -fuzztime 10s -fuzzminimizetime 1s "$2"
	done
}

rows="sweep trace metrics faults prof crit scale fork tlc fuzz"
case " $rows list " in
*" ${1:-} "*) ;;
*) echo "usage: $0 [--tests] {${rows// /|}|list}" >&2; exit 2 ;;
esac
if [ "$1" = list ]; then echo $rows; else "$1"; fi
