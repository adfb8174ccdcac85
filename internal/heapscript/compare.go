package heapscript

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/vmheap"
)

// Level is what a comparison requires two observations to agree on.
type Level uint16

const (
	// Verdicts: every violation's kind, class, script id, count, limit and
	// owner, and every rejected ownership registration.
	Verdicts Level = 1 << iota
	// Live: the allocated objects by script id, class and size. Observing
	// them flushes allocation buffers and runs VerifyHeap.
	Live
	// Exact (with Live): addresses — of live objects, of violating objects
	// and path elements — and the free list.
	Exact
	// Paths: each violation's heap path, by class.
	Paths
	// Cycles: the cycle that reported each violation.
	Cycles
	// Counts: heap occupancy and totals, collections, freed objects and
	// words, registrations, and the main thread's allocations.
	Counts
	// Buffers: allocation-buffer carves and bump allocations.
	Buffers
	// Trace: marked objects and words, and every trace counter.
	Trace
	// Stats: every Snapshot field but the clocks.
	Stats
)

// obs is one side of a comparison.
type obs struct {
	Verdicts []verdict
	Rejects  []string
	Live     []obj
	Free     []vmheap.FreeChunk
	Stats    core.Snapshot
	Allocs   uint64
}

// obj is one allocated object; Ref is zero on the model's side.
type obj struct {
	ID    int
	Ref   core.Ref
	Class string
	Words uint32
}

// observe reads what l needs of w, and fails on a broken invariant: heap
// accounting (live plus free words make the capacity), the pacer's growth
// cap, and — when l reads the live set — VerifyHeap.
func (w *World) observe(l Level) obs {
	o := obs{Verdicts: w.verdicts, Rejects: w.rejects, Stats: w.RT.Stats(), Allocs: w.Th.Allocs()}
	if h := o.Stats.Heap; h.LiveWords+h.FreeWords != h.CapacityWords {
		w.t.Fatalf("op %d: live %d + free %d words != capacity %d", w.ops, h.LiveWords, h.FreeWords, h.CapacityWords)
	}
	if p := o.Stats.Pacer; p.MaxCycleGrowthWords > p.GrowthCapWords {
		w.t.Fatalf("op %d: cycle growth %d exceeded cap %d", w.ops, p.MaxCycleGrowthWords, p.GrowthCapWords)
	}
	if l&Live == 0 {
		return o
	}
	for _, lo := range w.RT.LiveSet() {
		id, ok := w.ids[lo.Ref]
		if !ok {
			w.t.Fatalf("op %d: live object %d (%s) has no script id", w.ops, lo.Ref, lo.Class)
		}
		o.Live = append(o.Live, obj{id, lo.Ref, lo.Class, lo.Words})
	}
	if l&Exact != 0 {
		o.Free = w.RT.FreeChunks()
	}
	if errs := w.RT.VerifyHeap(); len(errs) > 0 {
		w.t.Fatalf("op %d: heap corrupt: %v", w.ops, errs[0])
	}
	return o
}

func (o obs) render(l Level) (verdicts, live []string) {
	for _, v := range o.Verdicts {
		s := fmt.Sprintf("%v|%s#%d|%d/%d|%s", v.Kind, v.Class, v.ID, v.Count, v.Limit, v.Owner)
		if l&Cycles != 0 {
			s += fmt.Sprintf("|c%d", v.Cycle)
		}
		if l&Exact != 0 {
			s += fmt.Sprintf("|@%d", v.Object)
		}
		for _, e := range v.Path {
			if l&Paths != 0 {
				s += "|" + e.Class
			}
			if l&Exact != 0 {
				s += fmt.Sprintf("@%d", e.Ref)
			}
		}
		verdicts = append(verdicts, s)
	}
	for _, x := range o.Live {
		s := fmt.Sprintf("%d:%s:%d", x.ID, x.Class, x.Words)
		if l&Exact != 0 {
			s += fmt.Sprintf("@%d", x.Ref)
		}
		live = append(live, s)
	}
	sort.Strings(verdicts)
	sort.Strings(live)
	return verdicts, live
}

// compare returns the first difference between a and b at level l, or nil.
func compare(l Level, a, b obs) error {
	var av, al, bv, bl []string
	if l&(Verdicts|Live) != 0 {
		av, al = a.render(l)
		bv, bl = b.render(l)
	}
	ah, bh := a.Stats.Heap, b.Stats.Heap
	ag, bg := a.Stats.GC, b.Stats.GC
	clockless := func(s core.Snapshot) core.Snapshot {
		s.GC.GCTime, s.GC.MaxPause = 0, 0
		return s
	}
	counts := func(o obs) []any {
		h, g := o.Stats.Heap, o.Stats.GC
		h.BufferCarves, h.BufferAllocs = 0, 0
		return []any{h, g.Collections, g.FreedObjects, g.FreedWords, o.Stats.Asserts, o.Allocs}
	}
	for _, c := range []struct {
		on   Level
		what string
		x, y any
	}{
		{Verdicts, "violations", av, bv},
		{Verdicts, "rejected registrations", a.Rejects, b.Rejects},
		{Live, "live sets", al, bl},
		{Exact, "free lists", a.Free, b.Free},
		{Counts, "counts", counts(a), counts(b)},
		{Buffers, "buffer counts", [2]uint64{ah.BufferCarves, ah.BufferAllocs}, [2]uint64{bh.BufferCarves, bh.BufferAllocs}},
		{Trace, "trace counters", []any{ag.MarkedObjects, ag.MarkedWords, ag.Trace}, []any{bg.MarkedObjects, bg.MarkedWords, bg.Trace}},
		{Stats, "stats", clockless(a.Stats), clockless(b.Stats)},
	} {
		if l&c.on != 0 && !reflect.DeepEqual(c.x, c.y) {
			return fmt.Errorf("%s differ:\n  A: %+v\n  B: %+v", c.what, c.x, c.y)
		}
	}
	return nil
}

// Pair is one differential: two configurations that must agree on a script
// at Level, or — with Model — one configuration and its shadow model.
type Pair struct {
	A, B   core.Config
	Model  bool // A is B's shadow model, not a runtime
	Shared bool // B calls NewThread before the script; A stays single-mutator
	Level  Level
	// EachOp, if set, is compared after every op too. It must not include
	// Live: that observation flushes allocation buffers.
	EachOp          Level
	Globals, Locals int // slots; no globals and 8 locals when both are zero
}

// Tally counts events inside ops for vacuity guards; Run keeps it only when
// EachOp is set.
type Tally struct {
	Triggered int // ops of B that allocate and completed a collection
	BornBlack int // ops of B that carved an allocation buffer inside an open cycle
}

// Run applies script to the pair's worlds op by op and compares them at
// every Check op, failing t on the first difference.
func Run(t testing.TB, p Pair, script []Op) (a, b *World, tally Tally) {
	t.Helper()
	if p.Globals+p.Locals == 0 {
		p.Locals = 8
	}
	b = newWorld(t, p.B, p.Globals, p.Locals)
	worlds := []*World{b}
	if p.Model {
		b.model = newModel(b.slots)
	} else {
		a = newWorld(t, p.A, p.Globals, p.Locals)
		worlds = append(worlds, a)
	}
	if p.Shared {
		b.RT.NewThread("shared")
	}
	check := func(at int, l Level) {
		t.Helper()
		var x obs
		if p.Model {
			var broken string
			if x, broken = b.model.observe(); broken != "" {
				t.Fatalf("op %d: the model cannot predict %s", at, broken)
			}
		} else {
			x = a.observe(l)
		}
		if err := compare(l, x, b.observe(l)); err != nil {
			t.Fatalf("op %d: %v", at, err)
		}
	}
	for n, op := range script {
		if op.Code == Check {
			check(n, p.Level)
			continue
		}
		var before core.Snapshot
		if p.EachOp != 0 {
			before = b.RT.Stats()
		}
		for _, w := range worlds {
			w.apply(op)
		}
		if p.EachOp != 0 {
			after := b.RT.Stats()
			if op.Code <= Burst && after.GC.Collections > before.GC.Collections {
				tally.Triggered++
			}
			if after.Heap.BufferCarves > before.Heap.BufferCarves && b.RT.GCActive() {
				tally.BornBlack++
			}
			check(n, p.EachOp)
		}
	}
	return a, b, tally
}
