package core

import (
	"reflect"
	"testing"
)

// FuzzLazySweep drives one byte-coded mutator script against two runtimes
// differing only in sweep mode — eager and lazy — and requires identical observable state after every collection: live set, free
// lists, and violation multiset. The first byte selects the collector, so
// the corpus explores both the mark-sweep and the generational (minor +
// major, promotion-in-place) sweep paths. Comparing after each GC observes
// the heap (LiveSet/FreeChunks complete a pending lazy sweep), which keeps
// the lazy allocator in lockstep with the eager one; the op set covers all
// five assertion kinds, so the deferred assertion bookkeeping is exercised
// on every path.
func FuzzLazySweep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 3, 5, 0, 1, 8, 7, 3})
	f.Add([]byte{1, 0, 0, 0, 1, 4, 2, 3, 0, 1, 5, 2, 2, 8, 0, 0})
	f.Add([]byte{0, 7, 0, 2, 0, 1, 0, 7, 0, 1, 1, 3, 0, 8, 4, 4})
	f.Add([]byte{1, 1, 0, 5, 8, 2, 1, 3, 0, 1, 6, 0, 0, 8, 0, 0, 3, 1, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		SetDebugChecks(true)
		defer SetDebugChecks(false)

		collector := MarkSweep
		if data[0]%2 == 1 {
			collector = Generational
		}
		eager := buildSweepWorld(collector, false)
		lazy := buildSweepWorld(collector, true)
		worlds := []*sweepWorld{eager, lazy}

		const maxOps = 300
		ops := 0
		for n := 1; n+3 <= len(data) && ops < maxOps; n += 3 {
			code, i, k := data[n], data[n+1], data[n+2]
			ops++
			if code%10 == 9 {
				// Collection op: policy-driven first (a minor under the
				// generational collector), then compare the settled heaps.
				for _, w := range worlds {
					if err := w.rt.Collect(); err != nil {
						t.Fatalf("op %d: Collect: %v", ops, err)
					}
					if err := w.rt.GC(); err != nil {
						t.Fatalf("op %d: GC: %v", ops, err)
					}
				}
				compareSweepWorlds(t, "mid-script", eager, lazy)
				continue
			}
			for _, w := range worlds {
				w.apply(code, i, k)
			}
		}

		for _, w := range worlds {
			if err := w.rt.GC(); err != nil {
				t.Fatalf("final GC: %v", err)
			}
		}
		compareSweepWorlds(t, "final", eager, lazy)
		for _, w := range worlds {
			if errs := w.rt.VerifyHeap(); len(errs) > 0 {
				t.Fatalf("heap corrupt: %v", errs[0])
			}
		}
		if a, b := eager.rt.Stats().GC.Collections, lazy.rt.Stats().GC.Collections; a != b {
			t.Fatalf("collection counts diverge: %d vs %d", a, b)
		}
		if !reflect.DeepEqual(renderViolations(eager.rt), renderViolations(lazy.rt)) {
			t.Fatal("final violation multisets diverge")
		}
	})
}
