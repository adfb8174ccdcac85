package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Differential tests for the allocation-buffer fast path: a world allocating
// through bump-pointer buffers must be observationally equivalent to one
// allocating directly off the free lists. Buffer placement legitimately
// diverges from the direct allocator's (a buffer claims a contiguous run up
// front), so unlike the sweep differentials these comparisons are
// address-independent: live sets are compared as (class, size) multisets,
// violations by their formatted text (class names and paths, never
// addresses), and the heap accounting by totals.

// sweepWorld is one runtime driven by a byte-coded mutator script (apply)
// that allocates, wires and clears references and makes all five kinds of
// assertion. The differential tests run the same script against worlds that
// differ in one knob and compare what the collector leaves behind.
const sweepSlots = 8

type sweepWorld struct {
	rt          *Runtime
	th          *Thread
	fr          *Frame
	node, leaf  *Class
	aOff, bOff  uint16
	regionDepth int
}

// buildSweepWorld is the script's world on a small Infrastructure heap.
func buildSweepWorld() *sweepWorld {
	return newSweepWorld(New(Config{
		HeapWords: 1 << 13,
		Mode:      Infrastructure,
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

// compareSweepWorlds requires address-exact identical state: live sets,
// free lists and violation multisets.
func compareSweepWorlds(t *testing.T, label string, base, other *sweepWorld) {
	t.Helper()
	if a, b := base.rt.LiveSet(), other.rt.LiveSet(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: live sets differ (%d vs %d objects)", label, len(a), len(b))
	}
	if a, b := base.rt.FreeChunks(), other.rt.FreeChunks(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: free lists differ: %v vs %v", label, a, b)
	}
	if a, b := renderViolations(base.rt), renderViolations(other.rt); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: violations differ:\n  base:  %v\n  other: %v", label, a, b)
	}
	if errs := other.rt.CheckFreeLists(); len(errs) > 0 {
		t.Fatalf("%s: free lists corrupt: %v", label, errs[0])
	}
}

// buildAllocWorld is buildSweepWorld plus an allocation-buffer size and an
// incremental mark budget.
func buildAllocWorld(bufWords int, incBudget int) *sweepWorld {
	return newSweepWorld(New(Config{
		HeapWords:         1 << 13,
		Mode:              Infrastructure,
		IncrementalBudget: incBudget,
		AllocBuffers:      bufWords,
	}))
}

// liveShape projects a live set down to its address-independent shape: a
// sorted multiset of class/size pairs.
func liveShape(rt *Runtime) []string {
	var out []string
	for _, o := range rt.LiveSet() {
		out = append(out, fmt.Sprintf("%s/%d", o.Class, o.Words))
	}
	sort.Strings(out)
	return out
}

// compareAllocWorlds requires the buffered world to match the direct world
// in every address-independent observable, and the buffered heap to be
// structurally sound.
func compareAllocWorlds(t *testing.T, label string, direct, buffered *sweepWorld) {
	t.Helper()
	if a, b := liveShape(direct.rt), liveShape(buffered.rt); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: live shapes differ (%d vs %d objects)\n  direct:   %v\n  buffered: %v",
			label, len(a), len(b), a, b)
	}
	if a, b := renderViolations(direct.rt), renderViolations(buffered.rt); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: violations differ:\n  direct:   %v\n  buffered: %v", label, a, b)
	}
	ds, bs := direct.rt.Stats(), buffered.rt.Stats()
	if ds.Heap.TotalAllocs != bs.Heap.TotalAllocs {
		t.Fatalf("%s: total allocs diverge: %d vs %d", label, ds.Heap.TotalAllocs, bs.Heap.TotalAllocs)
	}
	if ds.Heap.LiveWords != bs.Heap.LiveWords || ds.Heap.LiveObjects != bs.Heap.LiveObjects {
		t.Fatalf("%s: live accounting diverges: %d/%d words, %d/%d objects",
			label, ds.Heap.LiveWords, bs.Heap.LiveWords, ds.Heap.LiveObjects, bs.Heap.LiveObjects)
	}
	if bs.Heap.LiveWords+bs.Heap.FreeWords != bs.Heap.CapacityWords {
		t.Fatalf("%s: buffered accounting leak: live %d + free %d != capacity %d",
			label, bs.Heap.LiveWords, bs.Heap.FreeWords, bs.Heap.CapacityWords)
	}
	if ds.GC.Collections != bs.GC.Collections {
		t.Fatalf("%s: collection counts diverge: %d vs %d", label, ds.GC.Collections, bs.GC.Collections)
	}
	if ds.GC.FreedObjects != bs.GC.FreedObjects || ds.GC.FreedWords != bs.GC.FreedWords {
		t.Fatalf("%s: freed totals diverge: %d/%d objects, %d/%d words",
			label, ds.GC.FreedObjects, bs.GC.FreedObjects, ds.GC.FreedWords, bs.GC.FreedWords)
	}
	if a, b := direct.th.Allocs(), buffered.th.Allocs(); a != b {
		t.Fatalf("%s: thread alloc counts diverge: %d vs %d", label, a, b)
	}
	if errs := buffered.rt.CheckFreeLists(); len(errs) > 0 {
		t.Fatalf("%s: buffered free lists corrupt: %v", label, errs[0])
	}
}

// TestAllocBufferDifferential runs identical scripts against a direct and a
// buffered world on a stop-the-world runtime. All five assertion
// kinds are in the op mix, so the batched bookkeeping (alloc counters, region
// recording) is exercised on every path.
func TestAllocBufferDifferential(t *testing.T) {
	SetDebugChecks(true)
	defer SetDebugChecks(false)

	t.Run("marksweep/eager", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			direct := buildAllocWorld(0, 0)
			buffered := buildAllocWorld(256, 0)

			for round := 0; round < 6; round++ {
				for step := 0; step < 80; step++ {
					code, i, k := byte(rng.Intn(9)), byte(rng.Intn(256)), byte(rng.Intn(256))
					direct.apply(code, i, k)
					buffered.apply(code, i, k)
				}
				if err := direct.rt.GC(); err != nil {
					t.Fatalf("seed %d round %d: GC (direct): %v", seed, round, err)
				}
				if err := buffered.rt.GC(); err != nil {
					t.Fatalf("seed %d round %d: GC (buffered): %v", seed, round, err)
				}
				compareAllocWorlds(t, fmt.Sprintf("seed %d round %d", seed, round), direct, buffered)
			}

			if errs := buffered.rt.VerifyHeap(); len(errs) > 0 {
				t.Fatalf("seed %d: buffered heap corrupt: %v", seed, errs[0])
			}
			// The comparison is vacuous unless the fast path actually
			// served allocations.
			if n := buffered.rt.Stats().Heap.BufferAllocs; n == 0 {
				t.Fatalf("seed %d: buffered world never used the bump fast path", seed)
			}
			if n := direct.rt.Stats().Heap.BufferCarves; n != 0 {
				t.Fatalf("seed %d: direct world carved %d buffers", seed, n)
			}
		}
	})
}

// TestAllocBufferIncrementalDifferential drives incremental cycles at fixed
// script offsets in both worlds, with the scheduler opening and assisting
// others in between. While a cycle is open the direct world blackens each
// object and the buffered world carves born-black buffers; both must leave
// the same heap.
func TestAllocBufferIncrementalDifferential(t *testing.T) {
	SetDebugChecks(true)
	defer SetDebugChecks(false)

	rng := rand.New(rand.NewSource(5))
	direct := buildAllocWorld(0, 8)
	buffered := buildAllocWorld(256, 8)
	bornBlack := 0 // buffers carved inside an open cycle

	for round := 0; round < 6; round++ {
		for step := 0; step < 40; step++ {
			code, i, k := byte(rng.Intn(9)), byte(rng.Intn(256)), byte(rng.Intn(256))
			direct.apply(code, i, k)
			buffered.apply(code, i, k)
		}
		if err := direct.rt.StartGC(); err != nil {
			t.Fatalf("round %d: StartGC (direct): %v", round, err)
		}
		if err := buffered.rt.StartGC(); err != nil {
			t.Fatalf("round %d: StartGC (buffered): %v", round, err)
		}
		// Mutate mid-cycle: allocations must go allocate-black in both
		// worlds, stores hit the snapshot barrier identically.
		for step := 0; step < 20; step++ {
			code, i, k := byte(rng.Intn(9)), byte(rng.Intn(256)), byte(rng.Intn(256))
			direct.apply(code, i, k)
			carves := buffered.rt.Stats().Heap.BufferCarves
			buffered.apply(code, i, k)
			if buffered.rt.GCActive() && buffered.rt.Stats().Heap.BufferCarves > carves {
				bornBlack++
			}
			if step%4 == 3 {
				if _, err := direct.rt.GCStep(); err != nil {
					t.Fatalf("round %d: GCStep (direct): %v", round, err)
				}
				if _, err := buffered.rt.GCStep(); err != nil {
					t.Fatalf("round %d: GCStep (buffered): %v", round, err)
				}
			}
		}
		if err := direct.rt.FinishGC(); err != nil {
			t.Fatalf("round %d: FinishGC (direct): %v", round, err)
		}
		if err := buffered.rt.FinishGC(); err != nil {
			t.Fatalf("round %d: FinishGC (buffered): %v", round, err)
		}
		compareAllocWorlds(t, fmt.Sprintf("round %d", round), direct, buffered)
	}
	if errs := buffered.rt.VerifyHeap(); len(errs) > 0 {
		t.Fatalf("buffered heap corrupt: %v", errs[0])
	}
	if n := buffered.rt.Stats().Heap.BufferAllocs; n == 0 {
		t.Fatal("buffered world never used the bump fast path between cycles")
	}
	if bornBlack == 0 {
		t.Fatal("buffered world never carved a buffer inside an open cycle")
	}
}

// TestAllocBufferStatsFolding checks that Stats() observed mid-buffer — with
// allocations batched and unflushed — already reports the exact totals, by
// comparing against a direct world after the same allocations and checking
// the capacity invariant. The observation must not flush the buffer.
func TestAllocBufferStatsFolding(t *testing.T) {
	direct := buildAllocWorld(0, 0)
	buffered := buildAllocWorld(256, 0)

	for i := 0; i < 40; i++ {
		direct.apply(0, byte(i), 0)
		buffered.apply(0, byte(i), 0)
	}

	ds, bs := direct.rt.Stats(), buffered.rt.Stats()
	if ds.Heap.TotalAllocs != bs.Heap.TotalAllocs || ds.Heap.LiveObjects != bs.Heap.LiveObjects ||
		ds.Heap.LiveWords != bs.Heap.LiveWords {
		t.Fatalf("mid-buffer stats diverge: allocs %d/%d, objects %d/%d, words %d/%d",
			ds.Heap.TotalAllocs, bs.Heap.TotalAllocs, ds.Heap.LiveObjects, bs.Heap.LiveObjects,
			ds.Heap.LiveWords, bs.Heap.LiveWords)
	}
	if bs.Heap.LiveWords+bs.Heap.FreeWords != bs.Heap.CapacityWords {
		t.Fatalf("mid-buffer accounting leak: live %d + free %d != capacity %d",
			bs.Heap.LiveWords, bs.Heap.FreeWords, bs.Heap.CapacityWords)
	}
	if a, b := direct.th.Allocs(), buffered.th.Allocs(); a != b {
		t.Fatalf("mid-buffer thread alloc counts diverge: %d vs %d", a, b)
	}
	if bs.Heap.BufferAllocs == 0 {
		t.Fatal("no allocation was batched in a buffer")
	}
}

// TestAllocBufferDisabledBehavior pins the AllocBuffers=0 default to the
// pre-buffer allocator: the zero configuration takes the direct path
// exclusively (address-exact comparison against an identically-seeded
// direct world) and never carves a buffer.
func TestAllocBufferDisabledBehavior(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	implicit := buildSweepWorld() // no AllocBuffers field at all
	explicit := buildAllocWorld(0, 0)

	for round := 0; round < 3; round++ {
		for step := 0; step < 80; step++ {
			code, i, k := byte(rng.Intn(9)), byte(rng.Intn(256)), byte(rng.Intn(256))
			implicit.apply(code, i, k)
			explicit.apply(code, i, k)
		}
		if err := implicit.rt.GC(); err != nil {
			t.Fatalf("round %d: GC: %v", round, err)
		}
		if err := explicit.rt.GC(); err != nil {
			t.Fatalf("round %d: GC: %v", round, err)
		}
		// Address-exact: with buffers disabled both worlds run the same
		// allocator, so even object placement must be identical.
		compareSweepWorlds(t, fmt.Sprintf("round %d", round), implicit, explicit)
	}
}
