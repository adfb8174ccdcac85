# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench difftest torture fuzz figures casestudies verify

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

# Differential tests under the race detector, in one run over internal/. The
# mode differentials and oracles are config-pair arms over internal/heapscript
# (DESIGN.md §15): GC against a stepped cycle, stop-the-world against
# incremental and against the background pacer, direct against buffered
# allocation, a single-mutator runtime against a shared one (whose roots are
# the same globals and frame slots, to the address), silent against recording
# telemetry, and
# runtimes against the shadow model (TestOracle*), the core fuzzers' seed
# corpora, and the comparer's own test (TestCompareSeesEveryField). Beside them:
# the ArrayList over the range accessors vs a Go-slice model (TestListModel),
# the B-tree vs a sorted Go model (TestTreeModel), the range accessors'
# contract and barrier tests (reference and data arrays), and minidb's Find
# against a model of its live keys (TestFindModel).
difftest:
	go test -race -run 'Differential|TestOracle|TestAllocBuffer|TestTelemetry|TestCompareSeesEveryField|FuzzIncrementalBarrier|FuzzAllocBuffer|FuzzConcurrentPacer|TestSoloContract|TestListModel|TestTreeModel|TestRangeAccessors|TestArrCopyRefs|TestGatherData|TestFindModel' ./internal/...

# The GC-torture build (DESIGN.md §11): every allocation, and on a shared
# runtime every accessor, frame, global and string call, runs a side trace
# from the roots, and any use of an object that trace did not reach panics. It
# fails wherever a Ref is held only in Go across a point where a collection
# could free its object. -short shrinks the tests too large for a trace per
# call.
torture:
	go test -tags gctorture -short ./internal/core ./internal/collections ./internal/minidb ./internal/jbb ./internal/lusearch ./internal/workloads ./internal/staleness

# Short coverage-guided fuzz runs (go test takes one -fuzz pattern per
# invocation, so the targets run sequentially). The three core targets decode
# their input with heapscript's op alphabet: stop-the-world against stepped
# cycles, direct against buffered allocation, and stop-the-world against the
# background pacer; the sidetab target checks the ownee index against a map
# model.
fuzz:
	go test -run '^$$' -fuzz FuzzIncrementalBarrier -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzAllocBuffer -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz FuzzConcurrentPacer -fuzztime 30s ./internal/core
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
