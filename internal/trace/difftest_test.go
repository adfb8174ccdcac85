package trace_test

// Differential testing of the two routes to a full collection: the same
// scripted random mutation-and-assertion workload is run against two runtimes
// that differ only in how each forced collection is driven — one GC call, or
// StartGC, GCStep until done, FinishGC under a small mark budget with no
// mutator operation in between — and every observable end state must match
// exactly: the live set, the rebuilt free lists, the violation multiset with
// its paths, and the trace counters. The script is generated up front from
// the seed so both runtimes receive byte-identical operations. Where
// incdiff_test.go lets the mutator race the slices and so compares by script
// identity, here nothing interleaves, and the stepped cycle must be the
// stop-the-world one address for address.
//
// This lives in package trace_test and drives the full runtime stack (core
// -> gc -> trace -> vmheap) rather than the tracer alone, so the comparison
// covers the sweep and the engine table maintenance that consume the marks.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

const (
	diffHeapWords = 1 << 14 // large enough that the low-space trigger never starts a cycle
	diffGlobals   = 8
	diffLocals    = 8
	diffSlots     = diffGlobals + diffLocals
	diffOps       = 400
	diffSeeds     = 20
)

// diffOp is one scripted operation. All randomness is resolved when the
// script is generated; applying an op draws nothing.
type diffOp struct {
	code    int
	i, j, k int
}

const (
	opAllocNode = iota
	opAllocArray
	opAllocBig
	opWire
	opClear
	opAssertDead
	opAssertUnshared
	opStartRegion
	opAllDead
	opGC
	opCollect // a stop-the-world GC in both worlds
	opAssertInstances
	numOpCodes
)

func makeScript(seed int64) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]diffOp, diffOps)
	for n := range ops {
		ops[n] = diffOp{
			code: rng.Intn(numOpCodes),
			i:    rng.Intn(diffSlots),
			j:    rng.Intn(diffSlots),
			k:    rng.Intn(64),
		}
	}
	return ops
}

// diffWorld is one runtime under test plus the script's view of it.
type diffWorld struct {
	rt   *core.Runtime
	th   *core.Thread
	fr   *core.Frame
	gs   []*core.Global
	node *core.Class
	big  *core.Class
	fA   uint16
	fB   uint16

	regionDepth int
}

// newDiffWorld builds a runtime whose forced collections are stop-the-world
// (budget 0) or stepped in slices of budget objects.
func newDiffWorld(budget int) *diffWorld {
	rt := core.New(core.Config{
		HeapWords:         diffHeapWords,
		Mode:              core.Infrastructure,
		IncrementalBudget: budget,
	})
	w := &diffWorld{rt: rt, th: rt.MainThread()}
	w.node = rt.DefineClass("Node",
		core.RefField("a"), core.RefField("b"), core.DataField("d"))
	w.fA = w.node.MustFieldIndex("a")
	w.fB = w.node.MustFieldIndex("b")
	w.big = rt.DefineClass("Big",
		core.RefField("r0"), core.RefField("r1"),
		core.RefField("r2"), core.RefField("r3"))
	for i := 0; i < diffGlobals; i++ {
		w.gs = append(w.gs, rt.AddGlobal(fmt.Sprintf("g%d", i)))
	}
	w.fr = w.th.PushFrame(diffLocals)
	return w
}

func (w *diffWorld) get(slot int) core.Ref {
	if slot < diffGlobals {
		return w.gs[slot].Get()
	}
	return w.fr.Local(slot - diffGlobals)
}

func (w *diffWorld) set(slot int, r core.Ref) {
	if slot < diffGlobals {
		w.gs[slot].Set(r)
	} else {
		w.fr.SetLocal(slot-diffGlobals, r)
	}
}

func (w *diffWorld) apply(t *testing.T, op diffOp) {
	switch op.code {
	case opAllocNode:
		w.set(op.i, w.th.New(w.node))
	case opAllocArray:
		w.set(op.i, w.th.NewRefArray(1+op.k%6))
	case opAllocBig:
		w.set(op.i, w.th.New(w.big))
	case opWire:
		src, dst := w.get(op.i), w.get(op.j)
		if src == core.Nil {
			return
		}
		switch w.rt.ClassOf(src) {
		case w.node:
			off := w.fA
			if op.k%2 == 1 {
				off = w.fB
			}
			w.rt.SetRef(src, off, dst)
		case w.big:
			w.rt.SetRef(src, w.big.MustFieldIndex(fmt.Sprintf("r%d", op.k%4)), dst)
		default:
			if n := w.rt.ArrLen(src); n > 0 {
				w.rt.ArrSetRef(src, op.k%n, dst)
			}
		}
	case opClear:
		w.set(op.i, core.Nil)
	case opAssertDead:
		if r := w.get(op.i); r != core.Nil {
			if err := w.rt.AssertDead(r); err != nil {
				t.Fatalf("AssertDead: %v", err)
			}
		}
	case opAssertUnshared:
		if r := w.get(op.i); r != core.Nil {
			if err := w.rt.AssertUnshared(r); err != nil {
				t.Fatalf("AssertUnshared: %v", err)
			}
		}
	case opStartRegion:
		if w.regionDepth < 2 {
			if err := w.th.StartRegion(); err != nil {
				t.Fatalf("StartRegion: %v", err)
			}
			w.regionDepth++
		}
	case opAllDead:
		if w.regionDepth > 0 {
			if err := w.th.AssertAllDead(); err != nil {
				t.Fatalf("AssertAllDead: %v", err)
			}
			w.regionDepth--
		}
	case opGC:
		w.fullGC(t)
	case opCollect:
		if err := w.rt.GC(); err != nil {
			t.Fatalf("GC: %v", err)
		}
	case opAssertInstances:
		if op.k%4 == 0 {
			if err := w.rt.AssertInstances(w.node, int64(op.k)); err != nil {
				t.Fatalf("AssertInstances: %v", err)
			}
		}
	}
}

// fullGC forces one full collection: a stop-the-world GC, or on a runtime
// with a mark budget the same cycle started, stepped to the end and finished.
func (w *diffWorld) fullGC(t *testing.T) {
	if err := w.rt.StartGC(); err != nil {
		t.Fatalf("StartGC: %v", err)
	}
	for done := false; !done; {
		var err error
		if done, err = w.rt.GCStep(); err != nil {
			t.Fatalf("GCStep: %v", err)
		}
	}
	if err := w.rt.FinishGC(); err != nil {
		t.Fatalf("FinishGC: %v", err)
	}
}

// renderViolations flattens violations into sortable strings for an
// order-insensitive multiset comparison. Everything observable is included
// — kind, cycle, object, class, counts and the full path.
func renderViolations(vs []*report.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		var path []string
		for _, e := range v.Path {
			path = append(path, fmt.Sprintf("%s@%d", e.Class, e.Ref))
		}
		out[i] = fmt.Sprintf("%v|c%d|%s@%d|%d/%d|%s|%v",
			v.Kind, v.Cycle, v.Class, v.Object, v.Count, v.Limit, v.Owner, path)
	}
	sort.Strings(out)
	return out
}

// compareWorlds requires the two runtimes to be observably identical.
func compareWorlds(t *testing.T, at string, stw, stepped *diffWorld) {
	t.Helper()
	if a, b := stw.rt.LiveSet(), stepped.rt.LiveSet(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: live sets differ:\nstw:     %v\nstepped: %v", at, a, b)
	}
	if a, b := stw.rt.FreeChunks(), stepped.rt.FreeChunks(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: free lists differ:\nstw:     %v\nstepped: %v", at, a, b)
	}
	if a, b := renderViolations(stw.rt.Violations()), renderViolations(stepped.rt.Violations()); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: violation multisets differ:\nstw:     %v\nstepped: %v", at, a, b)
	}
}

func runDifferential(t *testing.T, seed int64) {
	script := makeScript(seed)
	stw := newDiffWorld(0)
	stepped := newDiffWorld(incBudget)

	for n, op := range script {
		stw.apply(t, op)
		stepped.apply(t, op)
		if op.code == opGC || op.code == opCollect {
			compareWorlds(t, fmt.Sprintf("op %d (seed %d)", n, seed), stw, stepped)
		}
	}
	stw.fullGC(t)
	stepped.fullGC(t)
	compareWorlds(t, fmt.Sprintf("end (seed %d)", seed), stw, stepped)

	// The trace counters must agree too: the stepped cycle processes exactly
	// the edges the stop-the-world trace does.
	sg, pg := stw.rt.Stats().GC, stepped.rt.Stats().GC
	if sg.Trace != pg.Trace {
		t.Fatalf("seed %d: trace counters differ:\nstw:     %+v\nstepped: %+v", seed, sg.Trace, pg.Trace)
	}
	if sg.Collections != pg.Collections || sg.MarkedObjects != pg.MarkedObjects ||
		sg.FreedObjects != pg.FreedObjects || sg.FreedWords != pg.FreedWords {
		t.Fatalf("seed %d: collection totals differ:\nstw:     %+v\nstepped: %+v", seed, sg, pg)
	}

	// Guard against a vacuous pass: every forced collection of the stepped
	// runtime must have been an incremental cycle, and none of the other's.
	if sg.IncrementalCycles != 0 || pg.IncrementalCycles == 0 || pg.MarkSlices == 0 {
		t.Fatalf("seed %d: incremental cycles stw=%d stepped=%d (slices %d)", seed, sg.IncrementalCycles, pg.IncrementalCycles, pg.MarkSlices)
	}
}

func TestDifferentialMarkSweep(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runDifferential(t, seed)
		})
	}
}
