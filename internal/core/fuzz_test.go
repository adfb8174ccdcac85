package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/report"
)

// The oracle fuzzer: drive the full runtime with a random mutator while
// maintaining a shadow object graph in plain Go. Before each collection,
// consult the shadow graph's reachability to predict exactly which
// dead-asserted objects must be reported — the paper's "no false
// positives" claim, tested mechanically: a violation fires if and only if
// the shadow graph says the object is reachable.

// shadowWorld mirrors the managed heap's reachable structure.
type shadowWorld struct {
	// edges[r] lists the refs stored in r's fields/elements.
	edges map[Ref][]Ref
	// roots are the globally rooted refs.
	roots map[Ref]bool
}

func newShadow() *shadowWorld {
	return &shadowWorld{edges: map[Ref][]Ref{}, roots: map[Ref]bool{}}
}

// reachable computes the shadow transitive closure.
func (s *shadowWorld) reachable() map[Ref]bool {
	seen := map[Ref]bool{}
	var stack []Ref
	for r := range s.roots {
		if r != Nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range s.edges[r] {
			if c != Nil && !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}

func TestOracleAssertDeadExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// The heap is sized far above the mutation volume so collections
		// happen only at the explicit GC points; between them every Ref
		// in `all` stays valid (the list is compacted to shadow-live
		// entries right after each collection).
		rt := New(Config{HeapWords: 1 << 14, Mode: Infrastructure})
		node := rt.DefineClass("Node", RefField("a"), RefField("b"))
		aOff := node.MustFieldIndex("a")
		bOff := node.MustFieldIndex("b")
		th := rt.MainThread()

		shadow := newShadow()
		var all []Ref

		// Slots: the only GC roots (besides nothing else).
		const slots = 6
		fr := th.PushFrame(slots)
		slotOf := make([]Ref, slots)

		setEdge := func(parent Ref, off uint16, child Ref) {
			rt.SetRef(parent, off, child)
			idx := 0
			if off == bOff {
				idx = 1
			}
			e := shadow.edges[parent]
			for len(e) < 2 {
				e = append(e, Nil)
			}
			e[idx] = child
			shadow.edges[parent] = e
		}
		syncRoots := func() {
			shadow.roots = map[Ref]bool{}
			for _, r := range slotOf {
				if r != Nil {
					shadow.roots[r] = true
				}
			}
		}

		for round := 0; round < 6; round++ {
			// Mutate randomly.
			for step := 0; step < 60; step++ {
				switch rng.Intn(4) {
				case 0, 1: // allocate into a slot
					i := rng.Intn(slots)
					o := th.New(node)
					all = append(all, o)
					fr.SetLocal(i, o)
					slotOf[i] = o
				case 2: // wire an edge between two known objects
					if len(all) >= 2 {
						p := all[rng.Intn(len(all))]
						c := all[rng.Intn(len(all))]
						off := aOff
						if rng.Intn(2) == 0 {
							off = bOff
						}
						// Only touch objects that are still valid in the
						// shadow (may be collected: check reachability
						// lazily by restricting to rooted-set parents).
						setEdge(p, off, c)
					}
				case 3: // clear a slot
					i := rng.Intn(slots)
					fr.SetLocal(i, Nil)
					slotOf[i] = Nil
				}
			}
			syncRoots()

			// Drop collected objects from our records: anything
			// unreachable in the shadow is about to be reclaimed, and
			// its Ref may be recycled.
			live := shadow.reachable()

			// Choose victims: some reachable (must be reported), some
			// garbage (must NOT be reported).
			expect := map[Ref]bool{}
			for _, r := range all {
				if !live[r] {
					continue
				}
				if rng.Intn(4) == 0 {
					if err := rt.AssertDead(r); err != nil {
						t.Logf("seed %d: AssertDead: %v", seed, err)
						return false
					}
					expect[r] = true
				}
			}
			var garbageVictims int
			for _, r := range all {
				if live[r] || garbageVictims >= 3 {
					continue
				}
				// The object is shadow-garbage but still allocated until
				// the next GC, so asserting it dead is legal and must
				// stay silent.
				if rt2 := rt; rt2 != nil {
					if err := rt.AssertDead(r); err == nil {
						garbageVictims++
					}
				}
			}

			rt.ResetViolations()
			if err := rt.GC(); err != nil {
				t.Logf("seed %d: GC: %v", seed, err)
				return false
			}

			// Exactness: reported set == expected set.
			got := map[Ref]bool{}
			for _, v := range rt.Violations() {
				if v.Kind != report.DeadReachable {
					t.Logf("seed %d: unexpected kind %v", seed, v.Kind)
					return false
				}
				got[v.Object] = true
			}
			for r := range expect {
				if !got[r] {
					t.Logf("seed %d: missed violation for %d", seed, r)
					return false
				}
			}
			for r := range got {
				if !expect[r] {
					t.Logf("seed %d: false positive for %d", seed, r)
					return false
				}
			}

			// Dead bits persist: clear our expectation state by rebuilding
			// the world record (reachable objects keep their dead bits and
			// would re-report next round, so un-root them now).
			for r := range expect {
				for i, s := range slotOf {
					if s == r {
						fr.SetLocal(i, Nil)
						slotOf[i] = Nil
					}
				}
				// Remove in-edges from the shadow and the heap so the
				// asserted objects really die before the next round.
				for p, es := range shadow.edges {
					for idx, c := range es {
						if c == r {
							off := aOff
							if idx == 1 {
								off = bOff
							}
							if live[p] {
								rt.SetRef(p, off, Nil)
							}
							es[idx] = Nil
						}
					}
				}
			}
			syncRoots()
			if err := rt.GC(); err != nil {
				return false
			}
			rt.ResetViolations()

			// Compact our object list to shadow-live entries only.
			nowLive := shadow.reachable()
			kept := all[:0]
			for _, r := range all {
				if nowLive[r] {
					kept = append(kept, r)
				} else {
					delete(shadow.edges, r)
				}
			}
			all = kept

			// Structural integrity after every round.
			if errs := rt.VerifyHeap(); len(errs) != 0 {
				t.Logf("seed %d: verify: %v", seed, errs[0])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
