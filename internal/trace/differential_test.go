package trace_test

// The tracer's differentials and oracle, as config-pair arms over
// internal/heapscript (DESIGN.md §15). They drive the whole runtime (core ->
// gc -> trace -> vmheap), so the sweep and the assertion tables that consume
// the marks are compared too. Scripts run 400 ops over 8 global and 8 frame
// slots on a heap large enough that no collection starts on its own.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	hs "repro/internal/heapscript"
)

var (
	mix = []hs.Code{hs.AllocNode, hs.AllocRefs, hs.AllocBig, hs.Store, hs.Clear,
		hs.AssertDead, hs.AssertUnshared, hs.AssertInstances, hs.StartRegion, hs.AssertAllDead}
	// cycles draws stepped cycles and stop-the-world collections.
	cycles = append(mix, hs.Cycle, hs.GC)
	// blocks draws StartGC..FinishGC blocks the mutator races.
	blocks = append(mix, hs.AssertOwnedBy, hs.StartGC, hs.GCStep, hs.FinishGC)
	// oracle weights stores (edges drive every check) and leaves ownership
	// out, which the model does not predict.
	oracle = append(mix, hs.Store, hs.Store, hs.StartGC, hs.GCStep, hs.FinishGC)
)

func cfg(budget int) core.Config {
	return core.Config{HeapWords: 1 << 14, Mode: core.Infrastructure, IncrementalBudget: budget}
}

func pair(budget int, l hs.Level) hs.Pair {
	return hs.Pair{A: cfg(0), B: cfg(budget), Level: l, Globals: 8, Locals: 8}
}

// blockScript is seed's 400 ops in paired blocks, then a final collection.
func blockScript(seed int64, codes []hs.Code, leafy bool) []hs.Op {
	ops := hs.Random(seed, 400, codes)
	if leafy {
		ops = hs.Leafy(ops)
	}
	return append(hs.Paired(ops), hs.Ops(hs.FinishGC, hs.GC, hs.Check)...)
}

func seeds(t *testing.T, n int64, f func(t *testing.T, seed int64)) {
	for seed := range n {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { f(t, seed) })
	}
}

// TestDifferentialMarkSweep: one GC call against StartGC, GCStep until the
// mark is done, FinishGC under a 3-object budget with no mutator op in
// between. Nothing interleaves, so the stepped cycle must be the
// stop-the-world one to the address, path and trace counter.
func TestDifferentialMarkSweep(t *testing.T) {
	seeds(t, 20, func(t *testing.T, seed int64) {
		script := append(hs.After(hs.After(hs.Random(seed, 400, cycles), hs.Cycle, hs.Op{Code: hs.Check}),
			hs.GC, hs.Op{Code: hs.Check}), hs.Ops(hs.Cycle, hs.Check)...)
		a, b, _ := hs.Run(t, pair(3, hs.Verdicts|hs.Live|hs.Exact|hs.Paths|hs.Cycles|hs.Counts|hs.Trace), script)
		if sa, sb := a.RT.Stats().GC, b.RT.Stats().GC; sa.IncrementalCycles != 0 || sb.IncrementalCycles == 0 || sb.MarkSlices == 0 {
			t.Fatalf("incremental cycles %d and %d (slices %d)", sa.IncrementalCycles, sb.IncrementalCycles, sb.MarkSlices)
		}
	})
}

// testIncDifferential: stop-the-world against a 3-object budget whose mark
// slices the mutator races inside each block (DESIGN.md §7). The worlds
// sweep at different ops, so addresses differ and objects are compared by
// script id; slice-time paths are snapshot-relative, so paths are left out;
// every check counter must still agree.
func testIncDifferential(t *testing.T, n int64, leafy bool) {
	var cycles, slices, barriers, ownees uint64
	seeds(t, n, func(t *testing.T, seed int64) {
		a, b, _ := hs.Run(t, pair(3, hs.Verdicts|hs.Live|hs.Cycles|hs.Counts|hs.Trace), blockScript(seed, blocks, leafy))
		if s := a.RT.Stats().GC; s.IncrementalCycles != 0 || s.BarrierScans != 0 {
			t.Fatalf("the stop-the-world world ran incremental machinery: %+v", s)
		}
		s := b.RT.Stats().GC
		cycles, slices, barriers, ownees = cycles+s.IncrementalCycles, slices+s.MarkSlices, barriers+s.BarrierScans, ownees+s.Trace.OwneesChecked
	})
	if cycles == 0 || slices == 0 || barriers == 0 || leafy && ownees == 0 {
		t.Fatalf("vacuous: cycles=%d slices=%d barrierScans=%d owneesChecked=%d", cycles, slices, barriers, ownees)
	}
}

func TestIncrementalDifferentialMarkSweep(t *testing.T) { testIncDifferential(t, 60, false) }

// TestIncrementalDifferentialLeafyOwnership runs the leaf-heavy ownership
// shape: owner scans and ownee subtrees over heaps mostly of data arrays.
func TestIncrementalDifferentialLeafyOwnership(t *testing.T) { testIncDifferential(t, 40, true) }

// testOracle checks a runtime against the shadow model: every violation of
// every cycle, by script id and cycle, and the live set at each FinishGC.
func testOracle(t *testing.T, budget int, n int64) (cycles, slices, barriers uint64) {
	seeds(t, n, func(t *testing.T, seed int64) {
		_, b, _ := hs.Run(t, hs.Pair{B: cfg(budget), Model: true, Level: hs.Verdicts | hs.Live | hs.Cycles, Globals: 8, Locals: 8},
			blockScript(seed, oracle, false))
		s := b.RT.Stats().GC
		cycles, slices, barriers = cycles+s.IncrementalCycles, slices+s.MarkSlices, barriers+s.BarrierScans
	})
	return
}

// TestOracleIncremental: the incremental machinery — slices, barrier scans,
// forced completions — must be observationally an atomic snapshot.
func TestOracleIncremental(t *testing.T) {
	if c, s, b := testOracle(t, 3, 100); c == 0 || s == 0 || b == 0 {
		t.Fatalf("vacuous oracle corpus: cycles=%d slices=%d barrierScans=%d", c, s, b)
	}
}

// TestOracleStopTheWorld: the model's semantics do not depend on the
// collection schedule.
func TestOracleStopTheWorld(t *testing.T) { testOracle(t, 0, 25) }
