# dsmsim — build, test and reproduction targets.

GO ?= go

.PHONY: all test test-short bench bench-one examples paper verify-paper trace-demo sweep-demo metrics-demo faults-demo prof-demo crit-demo scale-demo fork-demo tlc-demo clean

all: test

# Full test suite: protocol semantics, application verification across the
# whole protocol × granularity matrix, property tests.
test:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt -l lists:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...

# Quick subset (skips the mid-size sweeps and repeat runs).
test-short:
	$(GO) test -short ./...

# One iteration of every table/figure benchmark plus the ablations, at the
# reduced problem sizes.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# One workload of the repository benchmark, end-to-end metrics only, run
# the way the driver runs it: `make bench-one W=fine64`. W is any name (or
# comma-separated names) from BENCHMARK.json; the default is the 1024-node
# workload. The last output line is the result JSON.
W ?= scale1024
bench-one:
	bash bench/run.sh --workload $(W) --trace 0

# Run all three examples.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stencil
	$(GO) run ./examples/protocols lu

# Regenerate every paper table and figure at the paper's problem sizes
# (tens of minutes; writes results_paper.txt and results.csv).
paper:
	$(GO) run ./cmd/dsmbench -exp all -size paper -nodes 16 \
		-csv results.csv > results_paper.txt

# Paper-scale sweep with per-run result verification (slower).
verify-paper:
	$(GO) run ./cmd/dsmbench -exp all -size paper -nodes 16 -verify \
		-csv results.csv > results_paper.txt

# Demonstrate the parallel sweep engine: run a small experiment serially
# and with one worker per CPU under the race detector, and require the
# table + CSV output to be byte-identical.
sweep-demo:
	$(GO) run -race ./cmd/dsmbench -exp table3 -size small -nodes 4 \
		-parallel 1 -csv sweep_p1.csv > sweep_p1.txt 2>/dev/null
	$(GO) run -race ./cmd/dsmbench -exp table3 -size small -nodes 4 \
		-parallel 0 -csv sweep_pN.csv > sweep_pN.txt 2>/dev/null
	cmp sweep_p1.txt sweep_pN.txt
	cmp sweep_p1.csv sweep_pN.csv
	@echo "parallel sweep output is byte-identical to serial"

# Produce a sample execution trace from the quickstart example; open
# trace.json at https://ui.perfetto.dev (or chrome://tracing).
trace-demo:
	$(GO) run ./examples/quickstart -trace-json trace.json
	@echo "wrote trace.json — open it at https://ui.perfetto.dev"

# Demonstrate the virtual-time metrics sampler on one Ocean-Rowwise run:
# the phase-resolved Figure-2 breakdown on stdout, the sampler time-series
# as CSV, and Chrome-trace counter tracks for https://ui.perfetto.dev.
metrics-demo:
	$(GO) run ./cmd/dsmrun -app ocean-rowwise -protocol hlrc -block 4096 \
		-nodes 4 -sample-every 100us \
		-sample-csv metrics_demo.csv -sample-json metrics_demo.json
	@echo "wrote metrics_demo.csv and metrics_demo.json — open the JSON at https://ui.perfetto.dev"

# Demonstrate deterministic fault injection: one verified LU run at 1%
# message loss (the reliability counters print after the messages line),
# then the degradation table — completion time vs loss rate per protocol.
faults-demo:
	$(GO) run ./cmd/dsmrun -app lu -protocol sc -block 4096 -nodes 4 \
		-faults 'drop=0.01,seed=1'
	$(GO) run ./cmd/dsmbench -exp degradation -nodes 4 -size small \
		-progress=false

# Demonstrate the sharing-pattern profiler: one Volrend-Original run with
# the per-region report (the image plane shows the paper's false sharing),
# then the restructuring comparison — false-sharing fraction vs coherence
# granularity for the original and row-wise task shapes.
prof-demo:
	$(GO) run ./cmd/dsmrun -app volrend-original -protocol hlrc -block 4096 \
		-nodes 16 -prof
	$(GO) run ./cmd/dsmbench -exp sharing -nodes 16 -size small \
		-progress=false

# Demonstrate the critical-path profiler: one LU run with the recovered
# path's component/node/region report, the same run under a what-if
# (halved wire latency) printing the path-predicted speedup next to the
# re-simulated ground truth, then the path-composition table across the
# protocol × granularity matrix.
crit-demo:
	$(GO) run ./cmd/dsmrun -app lu -protocol hlrc -block 4096 -nodes 8 \
		-crit -crit-top 3
	$(GO) run ./cmd/dsmrun -app lu -protocol hlrc -block 4096 -nodes 8 \
		-whatif msg=0.5
	$(GO) run ./cmd/dsmbench -exp critpath -nodes 16 -size small \
		-progress=false

# Demonstrate the lifted node ceiling: verified FFT + LU sweep at 256
# nodes under every protocol, then a single verified 1024-node LU run.
# Sparse directory tables and compact copysets keep protocol metadata
# proportional to touched blocks (plus a per-node term), so node counts
# far past the old 64-node bound stay cheap.
scale-demo:
	$(GO) run ./cmd/dsmrun -app fft,lu -protocol all -block 4096 -nodes 256
	$(GO) run ./cmd/dsmrun -app lu -protocol hlrc -block 4096 -nodes 1024
	@echo "verified runs at 256 and 1024 nodes completed"

# Demonstrate the timestamp-lease protocol: one verified lock-heavy run
# under tlc (leases self-expire against the logical clock; no
# invalidation fan-out), a verified four-family sweep at both granularity
# extremes, then the registry-driven comparison table with tlc's lease
# traffic in the last column.
tlc-demo:
	$(GO) run ./cmd/dsmrun -app water-nsquared -protocol tlc -block 1024 -nodes 8
	$(GO) run ./cmd/dsmrun -app fft,lu -protocol all -block 64,4096 -nodes 4
	$(GO) run ./cmd/dsmbench -exp fourway -nodes 4 -size small -progress=false

# Demonstrate checkpoint/fork warmup sharing: the same fault-grid sweep
# (three variants per configuration, plans gated on barrier 6) run flat
# and forked. The forked run simulates each group's warmup prefix once,
# forks it per variant, prints its speedup summary line — and its CSV must
# be byte-identical to the flat run's.
fork-demo:
	rm -f fork_flat.csv fork_forked.csv
	$(GO) run ./cmd/dsmrun -app ocean-rowwise,fft -protocol sc,hlrc \
		-block 1024,4096 -nodes 4 -size small \
		-fault-grid 'none;lossy:drop=0.03,seed=5;jittery:jitter=30us,dup=0.01,seed=11' \
		-fork-warmup 6 -csv fork_flat.csv > /dev/null
	$(GO) run ./cmd/dsmrun -app ocean-rowwise,fft -protocol sc,hlrc \
		-block 1024,4096 -nodes 4 -size small \
		-fault-grid 'none;lossy:drop=0.03,seed=5;jittery:jitter=30us,dup=0.01,seed=11' \
		-fork-warmup 6 -fork -csv fork_forked.csv | tail -1
	cmp fork_flat.csv fork_forked.csv
	@echo "forked sweep CSV is byte-identical to flat"

clean:
	rm -f results.csv trace.json sweep_p1.txt sweep_pN.txt sweep_p1.csv sweep_pN.csv \
		metrics_demo.csv metrics_demo.json prof_p1.csv prof_p8.csv \
		crit_p1.csv crit_p8.csv \
		fork_flat.csv fork_forked.csv
