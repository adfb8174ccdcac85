package trace_test

// Differential testing of the incremental collector: the same scripted
// random mutation-and-assertion workload runs against two runtimes that
// differ only in IncrementalBudget — 0 (stop-the-world, the paper's
// configuration) versus a small slice budget — and every observable outcome
// must match exactly: which script objects are alive after each cycle, the
// violation multiset each cycle reports, and the cumulative trace counters.
//
// The design argument this checks (DESIGN.md §7) is that under the
// snapshot-at-beginning barrier every reachable object's reference slots
// are processed exactly once while they still hold their snapshot values,
// so each assertion check fires exactly as often as in a stop-the-world
// collection of the snapshot. The comparison is by script-assigned object
// identity, not by heap address: the two worlds sweep at different script
// positions, so their free lists — and hence the addresses of later
// allocations — legitimately diverge. Violation paths are likewise excluded
// (slice-time paths are snapshot-relative, see DESIGN.md §7); everything
// else, including per-cycle violation counts and the exact check counters,
// must be identical.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/vmheap"
)

const (
	incHeapWords = 1 << 14 // large enough that neither exhaustion nor the low-space trigger fires
	incGlobals   = 8
	incLocals    = 8
	incSlots     = incGlobals + incLocals
	incOps       = 400
	incBudget    = 3 // small slices: many mutator ops race each mark phase
)

type incOpCode int

const (
	incAllocNode incOpCode = iota
	incAllocArray
	incAllocBig
	incWire
	incClear
	incAssertDead
	incAssertUnshared
	incAssertInstances
	incAssertOwnedBy
	incStartRegion
	incAllDead
	incStartGC
	incStep
	incFinishGC
	numIncOpCodes

	// incAllocLeaf is never drawn; leafy scripts substitute it (below).
	incAllocLeaf incOpCode = numIncOpCodes
)

type incOp struct {
	code    incOpCode
	i, j, k int
}

// makeIncScript draws a script whose StartGC/FinishGC ops are well paired:
// StartGC is only emitted outside a cycle block and FinishGC only inside
// one. (Inside a block the stop-the-world world must not run a second
// collection the incremental world would not have.) Both worlds receive the
// identical op sequence.
//
// A leafy script is the ownership + leaf-heavy arm: it allocates strings
// where the plain script allocates Big objects and half its arrays, and
// asserts ownership where the plain script asserts instance limits, so
// owner scans, ownee subtrees and barrier scans all run over heaps in which
// data arrays outnumber everything else — the objects a stop-the-world
// trace keeps off its worklist and an incremental one does not.
func makeIncScript(seed int64, leafy bool) []incOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]incOp, incOps)
	inBlock := false
	for n := range ops {
		code := incOpCode(rng.Intn(int(numIncOpCodes)))
		if code == incStartGC && inBlock {
			code = incStep
		}
		if code == incFinishGC && !inBlock {
			code = incStep
		}
		if code == incStartGC {
			inBlock = true
		}
		if code == incFinishGC {
			inBlock = false
		}
		ops[n] = incOp{code: code, i: rng.Intn(incSlots), j: rng.Intn(incSlots), k: rng.Intn(64)}
		if !leafy {
			continue
		}
		switch op := &ops[n]; {
		case code == incAllocBig, code == incAllocArray && op.k%2 == 1:
			op.code = incAllocLeaf
		case code == incAssertInstances:
			op.code = incAssertOwnedBy
		}
	}
	return ops
}

// incWorld is one runtime under test plus the script's view of it. Every
// allocation is assigned a script-wide object id; ids — not Refs — are the
// identity the two worlds are compared by.
type incWorld struct {
	rt   *core.Runtime
	th   *core.Thread
	fr   *core.Frame
	gs   []*core.Global
	node *core.Class
	big  *core.Class
	fA   uint16
	fB   uint16

	ids    map[core.Ref]int
	nalloc int
	vlog   []string

	regionDepth int
}

func newIncWorld(budget int) *incWorld {
	w := &incWorld{ids: make(map[core.Ref]int)}
	w.rt = core.New(core.Config{
		HeapWords:         incHeapWords,
		Mode:              core.Infrastructure,
		IncrementalBudget: budget,
		// Violations must be rendered at report time, while the violating
		// object is still allocated: an ownership pre-phase can report an
		// unreachable object that the very same cycle then sweeps, and once
		// its address is recycled the ids map no longer describes it. The
		// handler only touches w.ids (the runtime lock is held here), and
		// Continue keeps the runtime's default handling unchanged.
		Handler: report.HandlerFunc(func(v *report.Violation) report.Action {
			objID := -1
			if v.Object != core.Nil {
				id, ok := w.ids[v.Object]
				if !ok {
					id = -2 // unknown object: always a comparison failure
				}
				objID = id
			}
			w.vlog = append(w.vlog, fmt.Sprintf("%v|c%d|%s#%d|%d/%d|%s",
				v.Kind, v.Cycle, v.Class, objID, v.Count, v.Limit, v.Owner))
			return report.Continue
		}),
	})
	rt := w.rt
	w.th = rt.MainThread()
	w.node = rt.DefineClass("Node",
		core.RefField("a"), core.RefField("b"), core.DataField("d"))
	w.fA = w.node.MustFieldIndex("a")
	w.fB = w.node.MustFieldIndex("b")
	w.big = rt.DefineClass("Big",
		core.RefField("r0"), core.RefField("r1"),
		core.RefField("r2"), core.RefField("r3"))
	for i := 0; i < incGlobals; i++ {
		w.gs = append(w.gs, rt.AddGlobal(fmt.Sprintf("g%d", i)))
	}
	w.fr = w.th.PushFrame(incLocals)
	return w
}

func (w *incWorld) get(slot int) core.Ref {
	if slot < incGlobals {
		return w.gs[slot].Get()
	}
	return w.fr.Local(slot - incGlobals)
}

func (w *incWorld) set(slot int, r core.Ref) {
	if slot < incGlobals {
		w.gs[slot].Set(r)
	} else {
		w.fr.SetLocal(slot-incGlobals, r)
	}
}

func (w *incWorld) record(r core.Ref) core.Ref {
	w.ids[r] = w.nalloc
	w.nalloc++
	return r
}

// apply runs one op; the returned string is the op's observable outcome
// (registration errors, mostly), which must match across worlds.
func (w *incWorld) apply(t *testing.T, op incOp) string {
	t.Helper()
	switch op.code {
	case incAllocNode:
		w.set(op.i, w.record(w.th.New(w.node)))
	case incAllocArray:
		w.set(op.i, w.record(w.th.NewRefArray(1+op.k%6)))
	case incAllocBig:
		w.set(op.i, w.record(w.th.New(w.big)))
	case incAllocLeaf:
		w.set(op.i, w.record(w.th.NewString("leaf-heavy"[:op.k%11])))
	case incWire:
		src, dst := w.get(op.i), w.get(op.j)
		if src == core.Nil || w.rt.KindOf(src) == int(vmheap.KindDataArray) {
			return ""
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
	case incClear:
		w.set(op.i, core.Nil)
	case incAssertDead:
		if r := w.get(op.i); r != core.Nil {
			return errString(w.rt.AssertDead(r))
		}
	case incAssertUnshared:
		if r := w.get(op.i); r != core.Nil {
			return errString(w.rt.AssertUnshared(r))
		}
	case incAssertInstances:
		if op.k%4 == 0 {
			return errString(w.rt.AssertInstances(w.node, int64(op.k)))
		}
	case incAssertOwnedBy:
		owner, ownee := w.get(op.i), w.get(op.j)
		if owner != core.Nil && ownee != core.Nil && owner != ownee {
			return errString(w.rt.AssertOwnedBy(owner, ownee))
		}
	case incStartRegion:
		if w.regionDepth < 2 {
			if err := w.th.StartRegion(); err != nil {
				t.Fatalf("StartRegion: %v", err)
			}
			w.regionDepth++
		}
	case incAllDead:
		if w.regionDepth > 0 {
			w.regionDepth--
			return errString(w.th.AssertAllDead())
		}
	case incStartGC:
		if err := w.rt.StartGC(); err != nil {
			t.Fatalf("StartGC: %v", err)
		}
	case incStep:
		if _, err := w.rt.GCStep(); err != nil {
			t.Fatalf("GCStep: %v", err)
		}
	case incFinishGC:
		if err := w.rt.FinishGC(); err != nil {
			t.Fatalf("FinishGC: %v", err)
		}
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// liveIDs maps the current live set to script object ids, with class and
// size attached so identity, type, and layout are all compared.
func (w *incWorld) liveIDs(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, o := range w.rt.LiveSet() {
		id, ok := w.ids[o.Ref]
		if !ok {
			t.Fatalf("live object %v (%s) has no script id", o.Ref, o.Class)
		}
		out = append(out, fmt.Sprintf("%d:%s:%d", id, o.Class, o.Words))
	}
	sort.Strings(out)
	return out
}

// drainViolations returns and clears the violation transcript (rendered at
// report time by the world's handler, identifying objects by script id).
// Paths are deliberately excluded: slice-time paths are snapshot-relative
// (DESIGN.md §7). The kind, cycle, object identity, class, counts, and
// owner must all match.
func (w *incWorld) drainViolations(t *testing.T) []string {
	t.Helper()
	out := w.vlog
	w.vlog = nil
	sort.Strings(out)
	return out
}

func compareIncWorlds(t *testing.T, at string, stw, inc *incWorld) {
	t.Helper()
	if stw.rt.GCActive() || inc.rt.GCActive() {
		t.Fatalf("%s: comparison point with an active cycle (stw=%v inc=%v)",
			at, stw.rt.GCActive(), inc.rt.GCActive())
	}
	if a, b := stw.liveIDs(t), inc.liveIDs(t); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: live sets differ:\nstw: %v\ninc: %v", at, a, b)
	}
	if a, b := stw.drainViolations(t), inc.drainViolations(t); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: violation multisets differ:\nstw: %v\ninc: %v", at, a, b)
	}
	if errs := inc.rt.VerifyHeap(); len(errs) > 0 {
		t.Fatalf("%s: incremental heap corrupt: %v", at, errs)
	}
	// The stop-the-world world is verified too: a corruption that hits both
	// worlds identically (e.g. the ownership phase freeing a referenced
	// object) would otherwise slip through the equality checks.
	if errs := stw.rt.VerifyHeap(); len(errs) > 0 {
		t.Fatalf("%s: stop-the-world heap corrupt: %v", at, errs)
	}
}

// runIncDifferential drives one seed through both worlds. The
// stop-the-world world maps StartGC to a full collection and Step/Finish to
// no-ops, so each StartGC..FinishGC block is exactly one full cycle in each
// world; in the incremental world the mutator ops inside the block race the
// mark slices and the write barrier.
func runIncDifferential(t *testing.T, seed int64, leafy bool) (incStats core.Snapshot) {
	script := makeIncScript(seed, leafy)
	stw := newIncWorld(0)
	inc := newIncWorld(incBudget)

	for n, op := range script {
		ra := stw.apply(t, op)
		rb := inc.apply(t, op)
		if ra != rb {
			t.Fatalf("op %d (seed %d): outcomes differ: stw=%q inc=%q", n, seed, ra, rb)
		}
		if op.code == incFinishGC {
			compareIncWorlds(t, fmt.Sprintf("op %d (seed %d)", n, seed), stw, inc)
		}
	}
	// Close any open cycle, then run one final stop-the-world collection in
	// both worlds (with no cycle active, GC is stop-the-world regardless of
	// budget).
	if err := stw.rt.FinishGC(); err != nil {
		t.Fatalf("final FinishGC (stw): %v", err)
	}
	if err := inc.rt.FinishGC(); err != nil {
		t.Fatalf("final FinishGC (inc): %v", err)
	}
	if err := stw.rt.GC(); err != nil {
		t.Fatalf("final GC (stw): %v", err)
	}
	if err := inc.rt.GC(); err != nil {
		t.Fatalf("final GC (inc): %v", err)
	}
	compareIncWorlds(t, fmt.Sprintf("end (seed %d)", seed), stw, inc)

	// The exactness theorem in numbers: every check counter — dead hits,
	// shared hits, ownees checked, slots scanned, objects visited — must be
	// identical, because the incremental cycle processes exactly the
	// snapshot edge multiset the stop-the-world trace does.
	sg, ig := stw.rt.Stats().GC, inc.rt.Stats().GC
	if sg.Trace != ig.Trace {
		t.Fatalf("seed %d: trace counters differ:\nstw: %+v\ninc: %+v", seed, sg.Trace, ig.Trace)
	}
	if sg.Collections != ig.Collections || sg.MarkedObjects != ig.MarkedObjects ||
		sg.FreedObjects != ig.FreedObjects || sg.FreedWords != ig.FreedWords {
		t.Fatalf("seed %d: collection totals differ:\nstw: %+v\ninc: %+v", seed, sg, ig)
	}
	if sg.IncrementalCycles != 0 || sg.BarrierScans != 0 {
		t.Fatalf("seed %d: stop-the-world world ran incremental machinery: %+v", seed, sg)
	}
	return inc.rt.Stats()
}

func testIncDifferential(t *testing.T, seeds int64, leafy bool) {
	var cycles, slices, barriers, ownees uint64
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := runIncDifferential(t, seed, leafy).GC
			cycles += s.IncrementalCycles
			slices += s.MarkSlices
			barriers += s.BarrierScans
			ownees += s.Trace.OwneesChecked
		})
	}
	// Guard against a vacuous pass: across the seed corpus the incremental
	// worlds must have run real incremental cycles, sliced marking, and
	// taken write-barrier snapshot scans (i.e. mutations raced the trace).
	if cycles == 0 || slices == 0 || barriers == 0 {
		t.Fatalf("vacuous differential: cycles=%d slices=%d barrierScans=%d", cycles, slices, barriers)
	}
	if leafy && ownees == 0 {
		t.Fatal("vacuous differential: the leafy scripts never checked an ownee")
	}
	t.Logf("cycles=%d slices=%d barrierScans=%d owneesChecked=%d", cycles, slices, barriers, ownees)
}

func TestIncrementalDifferentialMarkSweep(t *testing.T) {
	testIncDifferential(t, 60, false)
}

func TestIncrementalDifferentialLeafyOwnership(t *testing.T) {
	testIncDifferential(t, 40, true)
}
