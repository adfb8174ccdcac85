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
		w.root(nodes[rng.Intn(n)])
	}

	if withOwnership {
		// Owners must be root-reachable for the survivor-set invariant
		// (a dead owner's region legitimately survives one extra cycle),
		// so pick owners among directly rooted nodes and ownees among
		// their direct successors.
		seen := map[vmheap.Ref]bool{}
		for _, owner := range w.gl {
			if seen[owner] {
				continue
			}
			seen[owner] = true
			ownee := w.h.RefAt(owner, w.next)
			if ownee == vmheap.Nil || seen[ownee] {
				continue
			}
			if err := w.eng.AssertOwnedBy(owner, ownee); err == nil {
				seen[ownee] = true
			}
		}
	}
	return &randomWorld{w: w, nodes: nodes}
}

// markSweep puts a MarkSweep collector over the world.
func (r *randomWorld) markSweep(mode Mode) *MarkSweep {
	return NewMarkSweep(r.w.h, r.w.reg, r.w.roots, mode, r.w.eng)
}

// liveSet returns the objects in the heap.
func (r *randomWorld) liveSet() map[vmheap.Ref]bool {
	out := map[vmheap.Ref]bool{}
	r.w.h.Iterate(func(ref vmheap.Ref, _ uint64) { out[ref] = true })
	return out
}

// survivors runs one collection and returns the surviving node set.
func (r *randomWorld) survivors(t *testing.T, c *MarkSweep) map[vmheap.Ref]bool {
	t.Helper()
	if err := c.CollectFull(); err != nil {
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

// TestFullCycleBaseAndInfrastructureBothRoutes: the paper's two collector builds,
// Base (no assertion infrastructure) and Infrastructure, through both routes.
// The same random graph — in the Infrastructure build with assert-dead,
// assert-unshared and ownership assertions armed on it — is collected through
// CollectFull and through StartFull, StepMark until drained, FinishFull. Within
// a build both routes must leave the same survivors, report the same
// violations and count the same cycle, apart from IncrementalCycles; across
// builds the survivors and counts must match too, since checking an assertion
// never changes what is reachable.
func TestFullCycleBaseAndInfrastructureBothRoutes(t *testing.T) {
	type outcome struct {
		live       map[vmheap.Ref]bool
		violations []string
		// Collections, MarkedObjects, FreedWords.
		counts [3]uint64
	}
	run := func(t *testing.T, seed int64, mode Mode, stepped bool) outcome {
		r := buildRandom(t, seed, mode, mode == Infrastructure)
		w := r.w
		if mode == Infrastructure {
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
		}

		c := r.markSweep(mode)
		var err error
		if stepped {
			c.IncrementalBudget = 3
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
			counts: [3]uint64{s.Collections, s.MarkedObjects, s.FreedWords},
		}
		for _, v := range w.rec.Violations {
			out.violations = append(out.violations, v.Format())
		}
		sort.Strings(out.violations)
		return out
	}

	var violations int
	for seed := int64(1); seed <= 10; seed++ {
		want := run(t, seed, Infrastructure, false)
		violations += len(want.violations)
		if got := run(t, seed, Infrastructure, true); !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: infrastructure/stepped differs from infrastructure/stw:\nwant %+v\ngot  %+v", seed, want, got)
		}
		base := run(t, seed, Base, false)
		if len(base.violations) != 0 {
			t.Errorf("seed %d: Base reported violations: %v", seed, base.violations)
		}
		if got := run(t, seed, Base, true); !reflect.DeepEqual(base, got) {
			t.Errorf("seed %d: base/stepped differs from base/stw:\nwant %+v\ngot  %+v", seed, base, got)
		}
		if !reflect.DeepEqual(want.live, base.live) || want.counts != base.counts {
			t.Errorf("seed %d: Base and Infrastructure disagree:\ninfrastructure %v %v\nbase           %v %v",
				seed, want.counts, want.live, base.counts, base.live)
		}
	}
	if violations == 0 {
		t.Fatal("vacuous: no seed reported a violation")
	}
}
