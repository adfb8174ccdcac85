# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench sweepbench allocbench telemetrybench pausebench tracebench assertbench slobench difftest fuzz figures casestudies verify

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -bench . -benchmem ./...

# Sweep-mode microbenchmarks: eager vs lazy sweep, and the
# allocator with and without demand sweeping (see results/lazy_sweep.txt).
# BenchmarkSweep* gets a fixed iteration count: it rebuilds its heap under
# StopTimer every iteration, and at the default -benchtime go test kills the
# family at its 11-minute timeout.
sweepbench:
	go test -run '^$$' -bench 'BenchmarkSweep' -benchtime 20x -benchmem ./internal/vmheap
	go test -run '^$$' -bench 'BenchmarkAllocEager|BenchmarkAllocLazy' -benchmem ./internal/vmheap

# Allocation fast-path microbenchmarks: the direct free-list allocator vs
# bump-pointer buffers across object sizes and buffer sizes, plus the
# payload-zeroing idiom comparison (see results/alloc_fastpath.txt).
allocbench:
	go test -run '^$$' -bench 'BenchmarkAllocDirect|BenchmarkAllocBuffered|BenchmarkZeroing' -benchmem ./internal/vmheap

# Telemetry overhead: pseudojbb with telemetry off, ring-only, and
# streaming NDJSON to a discarded sink (see results/telemetry.txt).
telemetrybench:
	go test -run '^$$' -bench BenchmarkTelemetry -benchmem .

# Pause reports, each stamped with the core count: the per-pause distribution
# of hand-driven incremental cycles across mark budgets against the
# stop-the-world baseline (results/incremental_pause.txt), and the
# stop-the-world collector vs the scheduler with its background goroutine at
# several trigger/slack settings, comparing mutator-visible latency tails and
# throughput (results/concurrent_pacing.txt).
pausebench:
	go run ./cmd/gcbench -fig pause | tee results/incremental_pause.txt
	go run ./cmd/gcbench -fig pause -concurrent | tee results/concurrent_pacing.txt

# Trace-throughput baseline: marked words/sec of the whole-heap trace on
# the pseudojbb shape (see results/trace_throughput.txt).
tracebench:
	go test -run '^$$' -bench BenchmarkTraceThroughput -benchmem ./internal/harness | tee results/trace_throughput.txt

# Assertion-overhead report: per-assertion-kind collection throughput with
# the engine unarmed vs armed (dead, region, unshared, owned), plus the
# staleness profiler's Touch cost and Advance pause
# (see results/assert_overhead.txt).
assertbench:
	go test -run '^$$' -bench BenchmarkAssertTrace -benchtime 3000x -benchmem ./internal/harness | tee results/assert_overhead.txt
	go test -run '^$$' -bench BenchmarkStaleness -benchmem ./internal/harness | tee -a results/assert_overhead.txt

# Serving SLO sweep: the minidb server under open-loop load over loopback
# HTTP, swept across request rates and collector configs, with per-cell
# p50/p95/p99 request latency from the offline summary of each cell's
# NDJSON stream — the same file `gcmon -follow` reads live. The heap is
# sized so collections actually fire under the load and land in the tails.
# The gate requires aggregate p99 at the -slo-rps rate within the -slo-p99
# budget (see results/serving_slo.txt).
slobench:
	go run ./cmd/minidbd -selfdrive -gc stw,concurrent -rates 500,1000 \
		-duration 4s -heapwords 65536 -entries 1000 \
		-slo-rps 500 -slo-p99 50ms | tee results/serving_slo.txt

# Differential tests under the race detector, in one run over internal/:
# stop-the-world vs incremental cycles, hand-stepped and scheduler-driven
# (plus the shadow-model oracle), eager vs lazy sweep modes under both
# collectors, direct vs buffered allocation across every collector mode,
# telemetry on vs off (recording must be pure observation — byte-identical
# heaps), stop-the-world vs background-pacer concurrent collection, the
# single-mutator lock-elided regime vs the locked one, the staleness
# side table vs its map model, and the ArrayList over the range accessors vs a
# Go-slice model in the solo, shared, generational and open-cycle regimes
# (TestListModel), beside the range accessors' own contract and barrier tests.
difftest:
	go test -race -run 'Differential|TestOracle|TestLazySweep|TestAllocBuffer|TestTelemetry|TestSoloContract|TestListModel|TestRangeAccessors|TestArrCopyRefs' ./internal/...

# Short coverage-guided fuzz runs: stop-the-world against scheduler-driven
# incremental cycles, the eager/lazy sweep equivalence, the direct/buffered
# allocation equivalence, the stop-the-world/concurrent-pacer equivalence,
# and the side tables against their map models (go test takes one -fuzz
# pattern per invocation, so the targets run sequentially). The alphabets of
# FuzzIncrementalBarrier and FuzzConcurrentPacer include ArrCopyRefs range
# moves within and between reference arrays; the latter also draws the
# collector (mark-sweep or generational) from its input.
fuzz:
	go test -run '^$$' -fuzz FuzzIncrementalBarrier -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzLazySweep -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzAllocBuffer -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzConcurrentPacer -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzSideTab -fuzztime 30s ./internal/sidetab
	go test -run '^$$' -fuzz FuzzOwneeIndex -fuzztime 30s ./internal/sidetab

# Regenerate the paper's figures (text tables on stdout, CSV alongside).
figures:
	go run ./cmd/gcbench -fig all -csv figures.csv

# Run the four qualitative case studies of Section 3.2.
casestudies:
	go run ./cmd/leakcheck jbb
	go run ./cmd/leakcheck db
	go run ./cmd/leakcheck lusearch
	go run ./cmd/leakcheck swapleak

verify: build test race
