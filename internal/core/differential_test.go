package core_test

// The runtime's mode differentials, oracle and fuzzers: each is a row of
// config-pair arms over internal/heapscript's one script, world and comparer
// (DESIGN.md §15). Every arm runs the same ops on its two sides and compares
// them at each Check op at the arm's level.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	hs "repro/internal/heapscript"
	"repro/internal/telemetry"
)

var (
	// sweep is the stop-the-world mix: every scalar class, reference
	// arrays, stores, clears and every registration.
	sweep = []hs.Code{hs.AllocNode, hs.AllocLeaf, hs.AllocRefs, hs.Store, hs.Clear, hs.AssertDead,
		hs.AssertUnshared, hs.StartRegion, hs.AssertAllDead, hs.AssertOwnedBy}
	// soloMix adds data arrays, strings in nested frames and range moves.
	soloMix = append(sweep, hs.AllocNode, hs.AllocData, hs.AllocString, hs.Store, hs.Copy)
	// soloCodes adds, one op in 128 each, collections mid-round: a full one,
	// or a cycle opened for the ops that follow to write into.
	soloCodes = func() (codes []hs.Code) {
		for range 7 {
			codes = append(codes, soloMix...)
		}
		return append(codes, hs.GC, hs.StartGC)
	}()
	allocCodes = append(sweep, hs.GC)
	incCodes   = []hs.Code{hs.AllocNode, hs.AllocRefs, hs.Store, hs.Clear, hs.AssertDead, hs.AssertUnshared,
		hs.StartRegion, hs.AssertAllDead, hs.StartGC, hs.GCStep, hs.FinishGC, hs.AssertOwnedBy,
		hs.AssertInstances, hs.Copy}
	pacerCodes = []hs.Code{hs.AllocNode, hs.AllocRefs, hs.Store, hs.Clear, hs.Burst, hs.GC, hs.GC, hs.Poll, hs.Copy}
	concMix    = []hs.Code{hs.AllocNode, hs.AllocNode, hs.AllocNode, hs.AllocNode, hs.AllocNode, hs.AllocNode,
		hs.AllocRefs, hs.AllocRefs, hs.AllocRefs, hs.AllocRefs, hs.AllocData, hs.AllocData,
		hs.Store, hs.Store, hs.Store, hs.Store, hs.Store, hs.Clear, hs.Clear}
	concCodes = append(concMix, hs.GC)
	// quietCodes has bursts of garbage where concCodes collects: with
	// nothing collecting but the pacer, its trigger fires. oldGenCodes has
	// node allocations there instead.
	quietCodes  = append(concMix, hs.Burst)
	oldGenCodes = append(concMix, hs.AllocNode)

	// limits opens the stop-the-world scripts with instance limits tight
	// enough that the scripts trip them: Node and its subclass Leaf 24
	// together, Leaf 6 alone.
	limits = []hs.Op{{Code: hs.AssertInstances, K: 24<<2 | 2}, {Code: hs.AssertInstances, K: 6<<2 | 1}}

	exact = hs.Verdicts | hs.Live | hs.Exact | hs.Paths | hs.Cycles
)

func cfg(heap, budget, bufs int) core.Config {
	return core.Config{HeapWords: heap, Mode: core.Infrastructure, IncrementalBudget: budget, AllocBuffers: bufs}
}

func concurrent(trigger, slack float64, bufs int) core.Config {
	c := cfg(1<<13, 0, bufs)
	c.ConcurrentGC = true
	core.SetGeometry(&c, trigger, slack)
	return c
}

// rounds is limits, then n ops of codes from seed in rounds of per, each
// closed by a collection and a comparison.
func rounds(seed int64, n, per int, codes []hs.Code) []hs.Op {
	return append(limits, hs.Rounds(hs.Random(seed, n, codes), per, func(int) []hs.Op {
		return hs.Ops(hs.GC, hs.Check)
	})...)
}

// cycleRounds is limits, then rounds of 40 sweep ops, StartGC, 20 more
// with a GCStep after every fourth, FinishGC and a comparison. A
// registration among the 20 completes the open cycle early.
func cycleRounds(seed int64, n int) []hs.Op {
	script, ops := limits, hs.Random(seed, 40*n, sweep)
	mid := hs.Random(-seed, 20*n, sweep)
	for r := range n {
		script = append(append(script, ops[40*r:40*r+40]...), hs.Op{Code: hs.StartGC})
		for s, op := range mid[20*r : 20*r+20] {
			if script = append(script, op); s%4 == 3 {
				script = append(script, hs.Op{Code: hs.GCStep})
			}
		}
		script = append(script, hs.Ops(hs.FinishGC, hs.Check)...)
	}
	return script
}

// TestSoloSharedDifferential: the single-mutator regime against one where
// NewThread ran first, to the address after every forced collection and in
// heap and buffer counts after every op. The roots of both are the program's
// references and nothing else, so the regimes retain exactly the same
// objects. Collections mid-round keep the heap from filling, so each
// seed's 4000 ops go on with 2000 more without them, where allocation
// triggers collections of its own.
func TestSoloSharedDifferential(t *testing.T) {
	for _, budget := range []int{0, 32} {
		for _, buf := range []int{0, 64} {
			t.Run(fmt.Sprintf("marksweep/inc%d/buf%d", budget, buf), func(t *testing.T) {
				p := hs.Pair{A: cfg(1<<10, budget, buf), B: cfg(1<<10, budget, buf), Shared: true,
					Level: exact | hs.Counts | hs.Buffers, EachOp: hs.Counts | hs.Buffers}
				triggered := 0
				for seed := int64(1); seed <= 2; seed++ {
					ops := append(hs.Random(seed, 4000, soloCodes), hs.Random(-seed, 2000, soloMix)...)
					script := append(limits, hs.Rounds(ops, 1000, func(r int) []hs.Op {
						if budget > 0 && r%2 == 0 {
							return hs.Ops(hs.StartGC, hs.GCStep, hs.FinishGC, hs.GC, hs.Check)
						}
						return hs.Ops(hs.GC, hs.Check)
					})...)
					a, b, tally := hs.Run(t, p, script)
					if !core.Solo(a.RT) || core.Solo(b.RT) {
						t.Fatal("worlds are not in the regimes the test compares")
					}
					triggered += tally.Triggered
				}
				if triggered == 0 {
					t.Error("no allocation-triggered collection ran: the heap is too large for the script")
				}
			})
		}
	}
}

// TestAllocBufferDifferential: direct against buffered allocation on a
// stop-the-world runtime, by script id and heap counts (buffer placement
// differs, so addresses do).
func TestAllocBufferDifferential(t *testing.T) {
	core.SetDebugChecks(true)
	defer core.SetDebugChecks(false)
	t.Run("marksweep/eager", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			p := hs.Pair{A: cfg(1<<13, 0, 0), B: cfg(1<<13, 0, 256), Level: hs.Verdicts | hs.Live | hs.Paths | hs.Cycles | hs.Counts}
			a, b, _ := hs.Run(t, p, rounds(seed, 480, 80, sweep))
			checkBuffered(t, a, b)
		}
	})
}

func checkBuffered(t *testing.T, direct, buffered *hs.World) {
	t.Helper()
	if n := buffered.RT.Stats().Heap.BufferAllocs; n == 0 {
		t.Fatal("the buffered world never used the bump fast path")
	}
	if n := direct.RT.Stats().Heap.BufferCarves; n != 0 {
		t.Fatalf("the direct world carved %d buffers", n)
	}
}

// TestAllocBufferIncrementalDifferential: the same inside stepped cycles,
// where the direct world blackens each allocation and the buffered one
// carves born-black buffers; heap counts must agree after every op.
func TestAllocBufferIncrementalDifferential(t *testing.T) {
	core.SetDebugChecks(true)
	defer core.SetDebugChecks(false)
	p := hs.Pair{A: cfg(1<<13, 8, 0), B: cfg(1<<13, 8, 256),
		Level: hs.Verdicts | hs.Live | hs.Paths | hs.Cycles | hs.Counts, EachOp: hs.Counts}
	a, b, tally := hs.Run(t, p, cycleRounds(5, 6))
	checkBuffered(t, a, b)
	if tally.BornBlack == 0 {
		t.Fatal("the buffered world never carved a buffer inside an open cycle")
	}
}

// TestAllocBufferStatsFolding: Stats read mid-buffer, with allocations
// batched and unflushed, already has the direct world's counts (the
// comparison reads no live set, so it flushes nothing).
func TestAllocBufferStatsFolding(t *testing.T) {
	var script []hs.Op
	for i := range 40 {
		script = append(script, hs.Op{Code: hs.AllocNode, I: uint8(i)})
	}
	_, b, _ := hs.Run(t, hs.Pair{A: cfg(1<<13, 0, 0), B: cfg(1<<13, 0, 256), Level: hs.Counts},
		append(script, hs.Op{Code: hs.Check}))
	if b.RT.Stats().Heap.BufferAllocs == 0 {
		t.Fatal("no allocation was batched in a buffer")
	}
}

// TestAllocBufferDisabledBehavior: AllocBuffers 0 is the direct allocator,
// to the address and in every counter.
func TestAllocBufferDisabledBehavior(t *testing.T) {
	implicit := core.Config{HeapWords: 1 << 13, Mode: core.Infrastructure}
	hs.Run(t, hs.Pair{A: implicit, B: cfg(1<<13, 0, 0), Level: exact | hs.Stats}, rounds(9, 240, 80, sweep))
}

// TestTelemetryDifferential: a recording runtime against a silent one —
// recording is pure observation, so everything but the clocks agrees to the
// address — and the recording's event stream is well formed.
func TestTelemetryDifferential(t *testing.T) {
	core.SetDebugChecks(true)
	defer core.SetDebugChecks(false)
	for _, arm := range []struct {
		name         string
		budget, bufs int
	}{{"marksweep", 0, 0}, {"marksweep/buffered", 0, 256}, {"marksweep/incremental", 8, 0}} {
		t.Run(arm.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				runTelemetry(t, cfg(1<<13, arm.budget, arm.bufs), rounds(seed, 400, 80, sweep))
			}
		})
	}
}

// TestTelemetryIncrementalDifferential is the same inside stepped cycles,
// whose emit points sit in the bounded pauses. A registration completes the
// open cycle, so a round may end it before its first slice: ten rounds
// leave room for slices.
func TestTelemetryIncrementalDifferential(t *testing.T) {
	core.SetDebugChecks(true)
	defer core.SetDebugChecks(false)
	runTelemetry(t, cfg(1<<13, 8, 0), cycleRounds(7, 10), "inc_roots", "inc_slice", "inc_finish")
}

func runTelemetry(t *testing.T, c core.Config, script []hs.Op, phases ...string) {
	t.Helper()
	var sink bytes.Buffer
	traced := c
	traced.Telemetry = &telemetry.Config{Sink: &sink}
	silent, _, _ := hs.Run(t, hs.Pair{A: c, B: traced, Level: exact | hs.Stats}, script)
	if silent.RT.Telemetry() != nil {
		t.Fatal("the silent world has a recorder attached")
	}
	events, err := telemetry.ReadEvents(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("sink stream malformed: %v", err)
	}
	sum := telemetry.Summarize(events)
	if sum.Cycles == 0 || sum.Pause.Count == 0 {
		t.Fatalf("the recording world emitted no cycles (%d events)", len(events))
	}
	seen := map[string]bool{}
	for _, p := range sum.Phases {
		seen[p.Phase] = p.Count > 0
	}
	for _, p := range phases {
		if !seen[p] {
			t.Errorf("phase %q missing from the event stream", p)
		}
	}
}

// concTail quiesces both worlds, then registers on what the script left in
// the slots — assert-dead (and drop), assert-unshared, or ownership by the
// previous slot's object on leafy scripts — and collects twice.
func concTail(rng *rand.Rand, leafy bool) []hs.Op {
	script := hs.Ops(hs.Close)
	for s := range uint8(8) {
		switch rng.Intn(3) {
		case 0:
			script = append(script, hs.Op{Code: hs.AssertDead, I: s}, hs.Op{Code: hs.Clear, I: s})
		case 1:
			script = append(script, hs.Op{Code: hs.AssertUnshared, I: s})
		case 2:
			if leafy {
				script = append(script, hs.Op{Code: hs.AssertOwnedBy, I: s + 7, J: s})
			}
		}
	}
	limit := hs.Op{Code: hs.AssertInstances, K: uint8(rng.Intn(4) << 2)}
	return append(append(script, limit), hs.Ops(hs.GC, hs.GC, hs.Check)...)
}

// TestConcurrentDifferential: stop-the-world against the background pacer.
// The pacer's cycles land anywhere, so no assertion is registered until the
// worlds are closed, verdicts carry no cycle numbers, and the comparison is
// by script id at the end. Explicit collections one op in twenty keep the
// heap below the pacer's trigger, so the plain scripts go on for 2000 ops
// with bursts in their place; every arm fails if the trigger started no
// cycle. Leafy scripts are mostly data arrays and end with ownership pairs;
// the generational ones keep an old generation that takes young stores, and
// allocate nodes where the plain ones collect.
func TestConcurrentDifferential(t *testing.T) {
	for _, shape := range []string{"marksweep", "generational"} {
		for _, leafy := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s_leafy%v_seed%d", shape, leafy, seed), func(t *testing.T) {
					var ops []hs.Op
					if shape == "marksweep" {
						ops = append(hs.Random(seed, 2000, concCodes), hs.Random(-seed, 2000, quietCodes)...)
					} else {
						ops = hs.OldGen(hs.Random(seed, 2000, oldGenCodes), 8)
					}
					if leafy {
						ops = hs.Leafy(ops)
					}
					ops = append(ops, concTail(rand.New(rand.NewSource(seed)), leafy)...)
					_, b, _ := hs.Run(t, hs.Pair{A: cfg(1<<13, 0, 0), B: concurrent(0.4, 0.5, 128), Level: hs.Verdicts | hs.Live}, ops)
					if b.RT.Stats().Pacer.Triggers == 0 {
						t.Fatal("vacuous: the concurrent world's pacer triggered no cycle")
					}
				})
			}
		}
	}
}

// TestOracleAssertDeadExactness: a stop-the-world runtime against the shadow
// model on scripts of allocations, stores, clears and assert-deads — an
// asserted object is reported iff the model reaches it.
func TestOracleAssertDeadExactness(t *testing.T) {
	codes := []hs.Code{hs.AllocNode, hs.AllocNode, hs.Store, hs.Clear, hs.AssertDead}
	for seed := int64(1); seed <= 15; seed++ {
		script := hs.Rounds(hs.Random(seed, 360, codes), 60, func(int) []hs.Op { return hs.Ops(hs.GC, hs.Check) })
		hs.Run(t, hs.Pair{B: cfg(1<<14, 0, 0), Model: true, Locals: 6, Level: hs.Verdicts | hs.Live | hs.Cycles}, script)
	}
}

// FuzzIncrementalBarrier: stop-the-world against stepped cycles of a budget
// from the input, compared at every FinishGC; the corpus explores stores
// racing mark slices, registrations completing a cycle, and regions and
// range moves across slice boundaries.
func FuzzIncrementalBarrier(f *testing.F) {
	// data[0] selects the budget; 4 bytes per op follow.
	f.Add([]byte{0, 0, 0, 0, 0, 8, 0, 0, 0, 2, 0, 1, 1, 10, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 4, 0, 0, 0, 8, 0, 0, 0, 2, 0, 1, 1, 10, 0, 0, 0})
	f.Add([]byte{2, 6, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 8, 0, 0, 0, 9, 0, 0, 0, 10, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 11, 0, 1, 1, 8, 0, 0, 0, 3, 1, 0, 0, 10, 0, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 5, 0, 0, 0, 2, 0, 0, 0, 8, 0, 0, 0, 12, 0, 0, 0, 10, 0, 0, 0})
	// A range move inside an open cycle: a 3-element array (slot 0) whose
	// element 0 is a node (slot 1) asserted dead and held nowhere else; the
	// cycle opens, elements 1..2 move over element 0 before any slice has
	// reached the array, and the cycle completes. The stop-the-world twin
	// reported the node at the open; the snapshot barrier on the move must
	// make the incremental cycle report and keep it too.
	f.Add([]byte{0, 1, 0, 2, 2, 0, 1, 0, 0, 2, 0, 9, 9, 4, 1, 0, 0, 3, 1, 0, 0, 8, 0, 0, 0, 13, 8, 0, 1, 10, 0, 0, 0})
	// The same between two arrays: an empty one (slot 2) copied over it,
	// after the cycle's first one-object slice.
	f.Add([]byte{0, 1, 0, 2, 2, 1, 2, 2, 2, 0, 1, 0, 0, 2, 0, 9, 9, 4, 1, 0, 0, 3, 1, 0, 0, 8, 0, 0, 0, 9, 0, 0, 0, 13, 2, 0, 0, 10, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		script := append(hs.Paired(hs.Decode(data[1:], incCodes, 300)), hs.Ops(hs.FinishGC, hs.GC, hs.Check)...)
		hs.Run(t, hs.Pair{A: cfg(1<<14, 0, 0), B: cfg(1<<14, 1+int(data[0])%4, 0),
			Level: hs.Verdicts | hs.Live | hs.Cycles | hs.Counts | hs.Trace}, script)
	})
}

// FuzzConcurrentPacer: stop-the-world against the background pacer with its
// trigger, assist slack and buffer size drawn from the input, over bursts,
// stores, range moves, explicit collections and stats polls.
func FuzzConcurrentPacer(f *testing.F) {
	// data[0..2] select trigger, slack and buffer; 4 bytes per op follow.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 4, 9, 1, 9, 1, 2, 0, 2, 5, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 4, 15, 1, 15, 4, 15, 1, 15, 0, 1, 0, 1, 2, 3, 0, 3, 6, 0, 0, 0, 3, 1, 0, 1})
	f.Add([]byte{2, 2, 2, 0, 0, 0, 0, 1, 5, 0, 5, 2, 1, 0, 1, 4, 11, 1, 11, 5, 0, 0, 0, 4, 7, 0, 7, 0, 2, 0, 2})
	f.Add([]byte{3, 0, 2, 1, 3, 0, 3, 1, 5, 0, 5, 2, 4, 0, 4, 7, 0, 0, 0, 4, 12, 1, 12, 6, 0, 0, 0, 2, 2, 0, 2, 3, 0, 0, 0})
	f.Add([]byte{0, 2, 1, 4, 15, 1, 15, 4, 15, 1, 15, 4, 15, 1, 15, 5, 0, 0, 0, 4, 15, 1, 15, 4, 15, 1, 15, 7, 0, 0, 0, 0, 3, 0, 3})
	// An array (slot 0) survives a collection; a node (slot 2) goes into a
	// newer array (slot 1), whose elements are copied into the older one;
	// both newer slots are cleared and a collection runs. The node's only
	// reference is the copy, so a copy racing an open cycle must have
	// scanned the older array's snapshot first.
	f.Add([]byte{0, 0, 3, 1, 8, 1, 8, 5, 0, 0, 0, 1, 9, 1, 9, 0, 2, 0, 2, 2, 17, 2, 17, 8, 1, 8, 0, 3, 1, 0, 1, 3, 2, 0, 2, 6, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		conc := concurrent([]float64{0.3, 0.4, 0.5, 0.6}[data[0]%4], []float64{0.25, 0.5, 1.0}[data[1]%3],
			[]int{0, 128, 256}[data[2]%3])
		limit := hs.Op{Code: hs.AssertInstances, K: uint8(len(data)%3) << 2}
		script := append(append(hs.Decode(data[3:], pacerCodes, 250), hs.Op{Code: hs.Close}, limit),
			hs.Ops(hs.GC, hs.GC, hs.Check)...)
		hs.Run(t, hs.Pair{A: cfg(1<<13, 0, 0), B: conc, Level: hs.Verdicts | hs.Live}, script)
	})
}

// FuzzAllocBuffer: direct against buffered allocation with the buffer size
// from the input, compared after every pair of collections.
func FuzzAllocBuffer(f *testing.F) {
	// data[0] selects the buffer size; 4 bytes per op follow.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 3, 3, 5, 0, 1, 1, 9, 7, 3, 3})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 4, 2, 2, 3, 0, 1, 1, 5, 2, 2, 2, 9, 0, 0, 0})
	f.Add([]byte{2, 7, 0, 2, 2, 0, 1, 0, 0, 8, 0, 1, 1, 1, 3, 0, 0, 9, 4, 4, 4})
	f.Add([]byte{0, 1, 0, 5, 5, 9, 2, 1, 1, 3, 0, 1, 1, 6, 0, 0, 0, 9, 0, 0, 0, 3, 1, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		core.SetDebugChecks(true)
		defer core.SetDebugChecks(false)
		script := hs.After(hs.Decode(data[1:], allocCodes, 300), hs.GC, hs.Op{Code: hs.GC}, hs.Op{Code: hs.Check})
		hs.Run(t, hs.Pair{A: cfg(1<<13, 0, 0), B: cfg(1<<13, 0, []int{64, 256, 1024}[data[0]%3]),
			Level: hs.Verdicts | hs.Live | hs.Paths | hs.Cycles | hs.Counts},
			append(append(limits, script...), hs.Ops(hs.GC, hs.Check)...))
	})
}
