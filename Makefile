# dsmsim — build, test and reproduction targets.

GO ?= go

.PHONY: all test test-short bench bench-one examples verify-paper demos clean

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

# One iteration of every experiment at the reduced problem sizes
# (BenchmarkExperiment/table1 ... /critpath; one alone is
# `go test -bench='Experiment/fig1$' -benchtime=1x .`).
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

# Regenerate every paper table and figure at the paper's problem sizes,
# verifying every run's numeric result (tens of minutes): one run writes
# the run record results.jsonl, and the tables (results_paper.txt) and the
# run table (results.csv) are projections of it, which simulate nothing.
verify-paper:
	rm -f results.jsonl
	$(GO) run ./cmd/dsmrun -exp all -size paper -nodes 16 -record results.jsonl > /dev/null
	$(GO) run ./cmd/dsmrun -project all results.jsonl > results_paper.txt
	$(GO) run ./cmd/dsmrun -project run results.jsonl > results.csv

# Demos and end-to-end smoke checks: `make sweep-demo`, `trace-demo`,
# `metrics-demo`, `faults-demo`, `prof-demo`, `crit-demo`, `scale-demo`,
# `fork-demo`, `tlc-demo` each run one row of scripts/smoke.sh, the one
# place their command lines are written (`make demos` lists the rows; CI
# runs the same rows with their unit tests via `smoke.sh --tests ROW`).
%-demo:
	GO=$(GO) bash scripts/smoke.sh $*

demos:
	@bash scripts/smoke.sh list

clean:
	rm -f results.csv results.jsonl trace.txt trace.json metrics_demo.csv metrics_demo.jsonl
