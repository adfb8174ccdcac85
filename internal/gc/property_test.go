package gc

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vmheap"
)

// randomWorld is a random object graph, built identically for a given seed
// whatever the mode or the collector put over it.
type randomWorld struct {
	w     *world
	nodes []vmheap.Ref
}

func buildRandom(t *testing.T, seed int64, mode Mode, withOwnership bool) *randomWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := newWorld(t, mode)

	const n = 60
	nodes := make([]vmheap.Ref, n)
	for i := range nodes {
		nodes[i] = w.alloc(t)
	}
	for i := range nodes {
		if rng.Intn(3) > 0 {
			w.h.SetRefAt(nodes[i], w.next, nodes[rng.Intn(n)])
		}
	}
	for i := 0; i < 4; i++ {
		w.gl.Add(string(rune('a' + i))).Set(nodes[rng.Intn(n)])
	}

	if withOwnership {
		// Owners must be root-reachable for the survivor-set invariant
		// (a dead owner's region legitimately survives one extra cycle),
		// so pick owners among directly rooted nodes and ownees among
		// their direct successors.
		seen := map[vmheap.Ref]bool{}
		w.gl.EachRoot(func(slot *vmheap.Ref) {
			owner := *slot
			if seen[owner] {
				return
			}
			seen[owner] = true
			ownee := w.h.RefAt(owner, w.next)
			if ownee == vmheap.Nil || seen[ownee] {
				return
			}
			if err := w.eng.AssertOwnedBy(owner, ownee); err == nil {
				seen[ownee] = true
			}
		})
	}
	return &randomWorld{w: w, nodes: nodes}
}

// markSweep puts a MarkSweep collector over the world.
func (r *randomWorld) markSweep(mode Mode) *MarkSweep {
	return NewMarkSweep(r.w.h, r.w.reg, r.w.src(), mode, r.w.eng)
}

// liveSet returns the objects in the heap.
func (r *randomWorld) liveSet() map[vmheap.Ref]bool {
	out := map[vmheap.Ref]bool{}
	r.w.h.Iterate(func(ref vmheap.Ref, _ uint64) { out[ref] = true })
	return out
}

// survivors runs one collection and returns the surviving node set.
func (r *randomWorld) survivors(t *testing.T, c Collector) map[vmheap.Ref]bool {
	t.Helper()
	if err := c.Collect(); err != nil {
		t.Fatal(err)
	}
	return r.liveSet()
}

// Property (DESIGN.md invariant 5): with live owners, the ownership phase
// never changes which objects survive a collection.
func TestPropertyOwnershipPreservesSurvivors(t *testing.T) {
	f := func(seed int64) bool {
		plain := buildRandom(t, seed, Infrastructure, false)
		owned := buildRandom(t, seed, Infrastructure, true)
		s1 := plain.survivors(t, plain.markSweep(Infrastructure))
		s2 := owned.survivors(t, owned.markSweep(Infrastructure))
		return reflect.DeepEqual(s1, s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: repeated collections of an unchanged heap are idempotent —
// the second collection frees nothing and survivor sets stay identical.
func TestPropertyCollectionIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		w := buildRandom(t, seed, Infrastructure, false)
		c := w.markSweep(Infrastructure)
		s1 := w.survivors(t, c)
		freedBefore := c.Stats().FreedObjects
		s2 := w.survivors(t, c)
		return c.Stats().FreedObjects == freedBefore && reflect.DeepEqual(s1, s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: mark-bit idempotence holds for both trace loops — re-running a
// full collection with no intervening mutation frees nothing and reports
// nothing, under the Base loop and under the Infrastructure loop. A trace
// that left a mark set (or a check that misfired on the re-trace) breaks
// this immediately.
func TestPropertyMarkBitIdempotentBothTracers(t *testing.T) {
	for _, mode := range []Mode{Base, Infrastructure} {
		mode := mode
		t.Run(strings.ToLower(mode.String()), func(t *testing.T) {
			f := func(seed int64) bool {
				w := buildRandom(t, seed, mode, false)
				c := w.markSweep(mode)
				s1 := w.survivors(t, c)
				freedBefore := c.Stats().FreedObjects
				violationsBefore := len(w.w.rec.Violations)
				s2 := w.survivors(t, c)
				return c.Stats().FreedObjects == freedBefore &&
					len(w.w.rec.Violations) == violationsBefore &&
					reflect.DeepEqual(s1, s2)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: the heap passes the structural verifier after any collection
// of a random graph.
func TestPropertyHeapVerifiesAfterCollection(t *testing.T) {
	f := func(seed int64) bool {
		w := buildRandom(t, seed, Infrastructure, true)
		w.survivors(t, w.markSweep(Infrastructure))
		return len(w.w.h.Verify(w.w.reg)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFullCycleBothCollectorsBothRoutes: the two collectors run one cycle
// type. The same random graph, with assert-dead, assert-unshared and
// ownership assertions armed on it, is collected by MarkSweep and by
// Generational, each through CollectFull and through StartFull, StepMark
// until drained, FinishFull; all four runs must leave the same survivors, report
// the same violations and count the same cycle, apart from IncrementalCycles
// between the routes. Generational starts each run mid-policy — a remembered
// set in use, minors counted — and must end it with every survivor mature,
// the remembered set empty and the minor count reset: its completion sweep,
// the one step the collectors do not share.
func TestFullCycleBothCollectorsBothRoutes(t *testing.T) {
	type outcome struct {
		live       map[vmheap.Ref]bool
		violations []string
		// Collections, FullCollections, MarkedObjects, FreedWords.
		counts [4]uint64
	}
	run := func(t *testing.T, seed int64, generational, stepped bool) outcome {
		r := buildRandom(t, seed, Infrastructure, true)
		w := r.w
		for i, n := range r.nodes[:12] {
			var err error
			if i%2 == 0 {
				err = w.eng.AssertDead(n)
			} else {
				err = w.eng.AssertUnshared(n)
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		var c Collector
		var cyc *fullCycle
		var g *Generational
		if generational {
			g = NewGenerational(w.h, w.reg, w.src(), Infrastructure, w.eng)
			c, cyc = g, &g.fullCycle
			w.h.SetFlags(r.nodes[0], vmheap.FlagMature)
			g.WriteBarrier(r.nodes[0])
			g.minorsSinceMajor = 2
		} else {
			ms := r.markSweep(Infrastructure)
			c, cyc = ms, &ms.fullCycle
		}

		var err error
		if stepped {
			cyc.IncrementalBudget = 3
			c.StartFull()
			for !c.StepMark() {
			}
			err = c.FinishFull()
		} else {
			err = c.CollectFull()
		}
		if err != nil {
			t.Fatal(err)
		}

		s := c.Stats()
		var wantInc uint64
		if stepped {
			wantInc = 1
		}
		if s.IncrementalCycles != wantInc {
			t.Errorf("IncrementalCycles = %d, want %d", s.IncrementalCycles, wantInc)
		}
		out := outcome{
			live:   r.liveSet(),
			counts: [4]uint64{s.Collections, s.FullCollections, s.MarkedObjects, s.FreedWords},
		}
		for _, v := range w.rec.Violations {
			out.violations = append(out.violations, v.Format())
		}
		sort.Strings(out.violations)
		if generational {
			for ref := range out.live {
				if w.h.Flags(ref, vmheap.FlagMature) == 0 {
					t.Errorf("survivor %d not promoted", ref)
				}
			}
			if len(g.remembered) != 0 || w.h.Flags(r.nodes[0], vmheap.FlagRemember) != 0 {
				t.Error("remembered set survived the major collection")
			}
			if g.minorsSinceMajor != 0 {
				t.Errorf("minorsSinceMajor = %d, want 0", g.minorsSinceMajor)
			}
		}
		return out
	}

	var violations int
	for seed := int64(1); seed <= 10; seed++ {
		want := run(t, seed, false, false)
		violations += len(want.violations)
		for _, arm := range []struct {
			name                  string
			generational, stepped bool
		}{
			{"marksweep/stepped", false, true},
			{"generational/stw", true, false},
			{"generational/stepped", true, true},
		} {
			if got := run(t, seed, arm.generational, arm.stepped); !reflect.DeepEqual(want, got) {
				t.Errorf("seed %d: %s differs from marksweep/stw:\nwant %+v\ngot  %+v", seed, arm.name, want, got)
			}
		}
	}
	if violations == 0 {
		t.Fatal("vacuous: no seed reported a violation")
	}
}
