# dsmsim — build, test and reproduction targets. `make loc` prints the
# module's non-test and test Go line counts.

GO ?= go

.PHONY: all test test-short bench bench-one examples verify-paper demos clean loc

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

# Non-test and test Go lines across the whole module (build and VCS
# directories excluded): the numbers a change that simplifies reports
# before and after.
GOFILES = find . -path ./.git -prune -o -path ./.bench_build -prune -o -name '*.go'
loc:
	@echo "non-test Go: $$($(GOFILES) ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@echo "test Go: $$($(GOFILES) -name '*_test.go' -print0 | xargs -0 cat | wc -l)"

# Run all three examples.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stencil
	$(GO) run ./examples/protocols lu

# Record the paper matrix: every experiment at the paper's problem sizes on
# 16 nodes, verifying every run's numeric result, into results.jsonl (about
# 2 minutes wall and 4 CPU-minutes on 2 CPUs), then write its run table to
# internal/harness/testdata/paper16.csv, the checked-in file TestPaperMatrix
# checks the code, EXPERIMENTS.md and the paper's claims against. Every
# table of the record is `dsmrun -project all results.jsonl`, which
# simulates nothing.
verify-paper:
	rm -f results.jsonl
	$(GO) run ./cmd/dsmrun -exp all -size paper -nodes 16 -record results.jsonl > /dev/null
	$(GO) run ./cmd/dsmrun -project run results.jsonl > internal/harness/testdata/paper16.csv

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
	rm -f results.jsonl trace.txt trace.json metrics_demo.csv metrics_demo.jsonl
