package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Differential tests for the sweep modes: the lazy sweep must be
// observationally identical to the eager sweep — same live sets,
// same free lists, same violation multisets for all five assertion kinds —
// under both collectors. Observation itself (LiveSet / FreeChunks) completes
// a pending lazy sweep, so comparing after every collection also locks the
// lazy world's allocator into byte-identical behavior with the eager one.

const sweepSlots = 8

type sweepWorld struct {
	rt          *Runtime
	th          *Thread
	fr          *Frame
	node, leaf  *Class
	aOff, bOff  uint16
	regionDepth int
}

func buildSweepWorld(collector CollectorKind, lazy bool) *sweepWorld {
	return newSweepWorld(New(Config{
		HeapWords: 1 << 13,
		Mode:      Infrastructure,
		Collector: collector,
		LazySweep: lazy,
	}))
}

// newSweepWorld defines the script's classes on rt and roots its frame.
func newSweepWorld(rt *Runtime) *sweepWorld {
	node := rt.DefineClass("Node", RefField("a"), RefField("b"))
	leaf := rt.DefineSubclass("Leaf", node)
	w := &sweepWorld{
		rt: rt, th: rt.MainThread(), node: node, leaf: leaf,
		aOff: node.MustFieldIndex("a"), bOff: node.MustFieldIndex("b"),
	}
	w.fr = w.th.PushFrame(sweepSlots)
	// Instance-count limits tight enough that the scripts actually trip
	// them, so InstanceCount violations are part of every comparison.
	if err := rt.AssertInstancesIncludingSubclasses(node, 24); err != nil {
		panic(err)
	}
	if err := rt.AssertInstances(leaf, 6); err != nil {
		panic(err)
	}
	return w
}

// isNodeLike reports whether r is a Node or Leaf (has the a/b ref fields).
func (w *sweepWorld) isNodeLike(r Ref) bool {
	c := w.rt.ClassOf(r)
	return c == w.node || c == w.leaf
}

// apply runs one script op. The op stream must be identical across the
// worlds being compared; collections are driven by the caller so every world
// collects at the same points.
func (w *sweepWorld) apply(code, i, k byte) {
	slot := int(i) % sweepSlots
	switch code % 9 {
	case 0: // alloc node into slot
		w.fr.SetLocal(slot, w.th.New(w.node))
	case 1: // alloc leaf (subclass) into slot
		w.fr.SetLocal(slot, w.th.New(w.leaf))
	case 2: // alloc ref array into slot
		w.fr.SetLocal(slot, w.th.NewRefArray(1+int(k)%6))
	case 3: // wire slot -> slot
		src := w.fr.Local(slot)
		dst := w.fr.Local(int(k) % sweepSlots)
		if src == Nil {
			return
		}
		if w.isNodeLike(src) {
			off := w.aOff
			if k%2 == 1 {
				off = w.bOff
			}
			w.rt.SetRef(src, off, dst)
		} else if n := w.rt.ArrLen(src); n > 0 {
			w.rt.ArrSetRef(src, int(k)%n, dst)
		}
	case 4: // clear slot
		w.fr.SetLocal(slot, Nil)
	case 5: // assert-dead
		if r := w.fr.Local(slot); r != Nil {
			_ = w.rt.AssertDead(r)
		}
	case 6: // assert-unshared
		if r := w.fr.Local(slot); r != Nil {
			_ = w.rt.AssertUnshared(r)
		}
	case 7: // region bracket: open, or close asserting all dead
		if w.regionDepth < 2 && k%2 == 0 {
			if w.th.StartRegion() == nil {
				w.regionDepth++
			}
		} else if w.regionDepth > 0 {
			if err := w.th.AssertAllDead(); err == nil {
				w.regionDepth--
			}
		}
	case 8: // assert-owned-by between two slots
		owner := w.fr.Local(slot)
		ownee := w.fr.Local(int(k) % sweepSlots)
		if owner != Nil && ownee != Nil && owner != ownee &&
			w.isNodeLike(owner) && w.isNodeLike(ownee) {
			_ = w.rt.AssertOwnedBy(owner, ownee)
		}
	}
}

// renderViolations formats the recorded violations as a sorted multiset.
func renderViolations(rt *Runtime) []string {
	var out []string
	for _, v := range rt.Violations() {
		out = append(out, v.Format())
	}
	sort.Strings(out)
	return out
}

// compareSweepWorlds requires observationally identical state. The LiveSet
// and FreeChunks observations complete any pending lazy sweep first, so they
// compare the settled heap and re-synchronize the allocators.
func compareSweepWorlds(t *testing.T, label string, base, other *sweepWorld) {
	t.Helper()
	if a, b := base.rt.LiveSet(), other.rt.LiveSet(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: live sets differ (%d vs %d objects)", label, len(a), len(b))
	}
	if a, b := base.rt.FreeChunks(), other.rt.FreeChunks(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: free lists differ: %v vs %v", label, a, b)
	}
	if a, b := renderViolations(base.rt), renderViolations(other.rt); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: violations differ:\n  eager: %v\n  other: %v", label, a, b)
	}
	if errs := other.rt.CheckFreeLists(); len(errs) > 0 {
		t.Fatalf("%s: free lists corrupt: %v", label, errs[0])
	}
}

func TestSweepModesDifferential(t *testing.T) {
	SetDebugChecks(true)
	defer SetDebugChecks(false)

	for _, collector := range []CollectorKind{MarkSweep, Generational} {
		t.Run(fmt.Sprintf("%s/lazy", collector), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				eager := buildSweepWorld(collector, false)
				lazy := buildSweepWorld(collector, true)

				for round := 0; round < 6; round++ {
					for step := 0; step < 80; step++ {
						code, i, k := byte(rng.Intn(9)), byte(rng.Intn(256)), byte(rng.Intn(256))
						eager.apply(code, i, k)
						lazy.apply(code, i, k)
					}
					if collector == Generational && round%2 == 1 {
						// Policy-driven collection: a minor for the
						// generational collector (Immature lazy sweep).
						if err := eager.rt.Collect(); err != nil {
							t.Fatalf("seed %d round %d: Collect (eager): %v", seed, round, err)
						}
						if err := lazy.rt.Collect(); err != nil {
							t.Fatalf("seed %d round %d: Collect (lazy): %v", seed, round, err)
						}
					}
					if err := eager.rt.GC(); err != nil {
						t.Fatalf("seed %d round %d: GC (eager): %v", seed, round, err)
					}
					if err := lazy.rt.GC(); err != nil {
						t.Fatalf("seed %d round %d: GC (lazy): %v", seed, round, err)
					}
					compareSweepWorlds(t, fmt.Sprintf("seed %d round %d", seed, round), eager, lazy)
				}

				if errs := lazy.rt.VerifyHeap(); len(errs) > 0 {
					t.Fatalf("seed %d: lazy heap corrupt: %v", seed, errs[0])
				}
				if lazy.rt.Stats().Sweep.LazySweeps == 0 {
					t.Errorf("seed %d: no sweep actually ran lazy", seed)
				}
			}
		})
	}
}

// TestLazySweepUnobservedShape runs the same script against an eager and a
// lazy world WITHOUT any mid-run heap observation, so the lazy allocator is
// free to demand-sweep and place objects differently. Addresses may then
// diverge, but the worlds stay isomorphic: per-collection freed totals and
// per-kind violation counts must match exactly.
func TestLazySweepUnobservedShape(t *testing.T) {
	for _, collector := range []CollectorKind{MarkSweep, Generational} {
		t.Run(collector.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			eager := buildSweepWorld(collector, false)
			lazy := buildSweepWorld(collector, true)

			for round := 0; round < 8; round++ {
				for step := 0; step < 80; step++ {
					// Skip the address-sensitive ops: region and owned-by
					// violations are still covered by the lockstep test, and
					// the remaining kinds exercise the deferred bookkeeping.
					code := byte(rng.Intn(9))
					if code%9 == 8 {
						code = 0
					}
					i, k := byte(rng.Intn(256)), byte(rng.Intn(256))
					eager.apply(code, i, k)
					lazy.apply(code, i, k)
				}
				if err := eager.rt.GC(); err != nil {
					t.Fatalf("round %d: GC (eager): %v", round, err)
				}
				if err := lazy.rt.GC(); err != nil {
					t.Fatalf("round %d: GC (lazy): %v", round, err)
				}

				es, ls := eager.rt.Stats(), lazy.rt.Stats()
				if es.GC.FreedObjects != ls.GC.FreedObjects || es.GC.FreedWords != ls.GC.FreedWords {
					t.Fatalf("round %d: freed totals diverge: %d/%d objects, %d/%d words",
						round, es.GC.FreedObjects, ls.GC.FreedObjects, es.GC.FreedWords, ls.GC.FreedWords)
				}
				if es.GC.Collections != ls.GC.Collections {
					t.Fatalf("round %d: collection counts diverge: %d vs %d",
						round, es.GC.Collections, ls.GC.Collections)
				}
				ev, lv := renderViolations(eager.rt), renderViolations(lazy.rt)
				if len(ev) != len(lv) {
					t.Fatalf("round %d: violation counts diverge: %d vs %d\n  eager: %v\n  lazy: %v",
						round, len(ev), len(lv), ev, lv)
				}
			}
			if errs := lazy.rt.VerifyHeap(); len(errs) > 0 {
				t.Fatalf("lazy heap corrupt: %v", errs[0])
			}
			if st := lazy.rt.Stats(); st.Sweep.DemandSegments == 0 {
				t.Error("no segment was ever swept on allocator demand")
			}
		})
	}
}

// TestLazySweepGenerationalPromotionBarrier is the regression test for the
// promotion hazard: after a lazy full collection, survivors are only
// promoted to mature when their segment is actually swept. A store into such
// a pending-mature object must still be remembered, or the next minor
// collection reclaims the immature child it points to.
func TestLazySweepGenerationalPromotionBarrier(t *testing.T) {
	rt := New(Config{
		HeapWords:     1 << 13,
		Mode:          Infrastructure,
		Collector:     Generational,
		LazySweep:     true,
		GenMajorEvery: 1 << 30,
		GenMinorFloor: -1, // no escalation: Collect stays minor
	})
	node := rt.DefineClass("Node", RefField("a"), RefField("b"))
	aOff := node.MustFieldIndex("a")
	th := rt.MainThread()
	fr := th.PushFrame(2)

	// Fillers push the parent to a high address (a late parse range), and
	// freeing the early ones gives the post-GC allocator low-address chunks
	// to demand-sweep, so the parent's own range stays unswept.
	const fillers = 1000
	arr := th.NewRefArray(fillers)
	fr.SetLocal(0, arr)
	for i := 0; i < fillers; i++ {
		rt.ArrSetRef(arr, i, th.New(node))
	}
	for i := 0; i < 40; i++ {
		rt.ArrSetRef(arr, i, Nil)
	}
	parent := th.New(node)
	fr.SetLocal(1, parent)

	if err := rt.GC(); err != nil { // full: promotions armed, sweep deferred
		t.Fatalf("GC: %v", err)
	}
	if !rt.SweepPending() {
		t.Fatal("lazy sweep not pending after full collection")
	}

	// The child's allocation demand-sweeps only until a low chunk fits; the
	// parent must still be awaiting its deferred promotion for the test to
	// mean anything.
	child := th.New(node)
	if !rt.SweepPending() {
		t.Skip("allocation completed the sweep; heap layout no longer exercises the window")
	}
	rt.SetRef(parent, aOff, child) // barrier must remember pending-mature parent

	if err := rt.Collect(); err != nil { // minor
		t.Fatalf("Collect: %v", err)
	}
	found := false
	for _, o := range rt.LiveSet() {
		if o.Ref == child {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("immature child reclaimed by minor collection: store into pending-mature parent was not remembered")
	}
	if errs := rt.VerifyHeap(); len(errs) > 0 {
		t.Fatalf("heap corrupt: %v", errs[0])
	}
}
