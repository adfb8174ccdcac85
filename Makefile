# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench difftest fuzz figures casestudies verify

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

# Differential tests under the race detector, in one run over internal/:
# stop-the-world vs incremental cycles, hand-stepped and scheduler-driven
# (plus the shadow-model oracle), direct vs buffered allocation on
# stop-the-world and incremental runtimes, telemetry on vs off (recording must be pure observation —
# byte-identical heaps), stop-the-world vs background-pacer concurrent
# collection, the single-mutator lock-elided regime vs the locked one, the
# staleness side table vs its map model, and the ArrayList over the range accessors vs a
# Go-slice model in the solo, shared and open-cycle regimes
# (TestListModel), beside the range accessors' own contract and barrier tests
# (GatherData's in every regime), and minidb's Find against a model of its
# live keys on stop-the-world, concurrent and 2-worker server runtimes
# (TestFindModel).
difftest:
	go test -race -run 'Differential|TestOracle|TestAllocBuffer|TestTelemetry|TestSoloContract|TestListModel|TestRangeAccessors|TestArrCopyRefs|TestGatherData|TestFindModel' ./internal/...

# Short coverage-guided fuzz runs: stop-the-world against scheduler-driven
# incremental cycles, the direct/buffered allocation equivalence, the
# stop-the-world/concurrent-pacer equivalence, and the side tables against
# their map models (go test takes one -fuzz
# pattern per invocation, so the targets run sequentially). The alphabets of
# FuzzIncrementalBarrier and FuzzConcurrentPacer include ArrCopyRefs range
# moves within and between reference arrays.
fuzz:
	go test -run '^$$' -fuzz FuzzIncrementalBarrier -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzAllocBuffer -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzConcurrentPacer -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzSideTab -fuzztime 30s ./internal/sidetab
	go test -run '^$$' -fuzz FuzzOwneeIndex -fuzztime 30s ./internal/sidetab

# Regenerate the paper's figures into results/ (the text tables, and the raw
# measurements as CSV). Every other layer is measured by bench/ (bash
# bench/run.sh; see bench/README.md).
figures:
	go run ./cmd/gcbench -fig all -q -csv results/figures.csv | tee results/figures.txt

# Run the four qualitative case studies of Section 3.2.
casestudies:
	go run ./cmd/leakcheck jbb
	go run ./cmd/leakcheck db
	go run ./cmd/leakcheck lusearch
	go run ./cmd/leakcheck swapleak

verify: build test race
