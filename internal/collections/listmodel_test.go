package collections

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestListModel runs one seeded random ListAdd / ListRemoveAt / ListSet /
// ListEach / ListEachBlock / ListIndexOf script against a Go-slice model in
// the three regimes the range accessors behave differently in: one mutator
// on a stop-the-world heap (no lock, no barrier), a shared runtime (rt.mu per
// call) and an incremental one whose cycle is held open across ops — reopened by StartGC as soon as GCStep completes it — so
// that shifts run the snapshot barrier on a backing array the marker has not
// reached and growth copies land in an array allocated black. The list is
// the only path to its elements, so a word moved to the wrong place, or not
// at all, shows as different contents or a dangling reference. (What a shift
// without its barrier loses is the element shifted out, which no list holds
// any more: internal/core's FuzzIncrementalBarrier and TestArrCopyRefsBarriers
// check that against the stop-the-world verdicts.)
//
// After every op the list equals the model, and VerifyHeap is empty whenever
// no cycle is open (the verifier rejects the mark bits of a cycle in flight,
// so the incremental regime verifies at each cycle's end).
func TestListModel(t *testing.T) {
	for _, regime := range []struct {
		name    string
		cfg     core.Config
		shared  bool
		collect func(rt *core.Runtime) error
	}{
		{name: "solo", collect: (*core.Runtime).GC},
		{name: "shared", shared: true, collect: (*core.Runtime).GC},
		{name: "incremental", cfg: core.Config{IncrementalBudget: 4}},
	} {
		t.Run(regime.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := regime.cfg
				cfg.HeapWords = 1 << 14
				cfg.Mode = core.Infrastructure
				rt := core.New(cfg)
				if regime.shared {
					rt.NewThread("second")
				}
				runListModel(t, rt, seed, regime.collect)
			}
		})
	}
}

// runListModel drives the script on rt. collect, when non-nil, runs every
// few ops; when nil the runtime is incremental and a cycle is kept open.
func runListModel(t *testing.T, rt *core.Runtime, seed int64, collect func(*core.Runtime) error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	th, kit := rt.MainThread(), NewKit(rt)
	val := rt.DefineClass("Value", core.DataField("v"))
	vOff := val.MustFieldIndex("v")
	f := th.PushFrame(2)
	f.SetLocal(0, kit.NewList(th))
	list := f.Local(0)
	// fresh allocates a Value carrying the next id, rooted in local 1 until
	// the list holds it.
	next := int64(0)
	fresh := func() core.Ref {
		next++
		f.SetLocal(1, th.New(val))
		rt.SetInt(f.Local(1), vOff, next)
		return f.Local(1)
	}
	var model []int64

	for op := 0; op < 600; op++ {
		if collect == nil {
			if err := rt.StartGC(); err != nil { // a no-op while the cycle is open
				t.Fatal(err)
			}
		}
		switch k := rng.Intn(10); {
		case k < 5 || len(model) == 0: // add: the list grows past two scan blocks, doubling six times
			kit.ListAdd(th, list, fresh())
			model = append(model, next)
		case k < 7: // remove: the head (the longest shift), the tail (none) or anywhere
			i := []int{0, len(model) - 1, rng.Intn(len(model))}[rng.Intn(3)]
			if got := rt.GetInt(kit.ListRemoveAt(list, i), vOff); got != model[i] {
				t.Fatalf("seed %d op %d: ListRemoveAt(%d) returned %d, want %d", seed, op, i, got, model[i])
			}
			model = append(model[:i], model[i+1:]...)
		case k < 8: // set: a fresh element, or a duplicate of another position
			i := rng.Intn(len(model))
			if j := rng.Intn(len(model)); rng.Intn(2) == 0 {
				kit.ListSet(list, i, kit.ListGet(list, j))
				model[i] = model[j]
			} else {
				kit.ListSet(list, i, fresh())
				model[i] = next
			}
		default: // index-of: the first position holding that element
			i := rng.Intn(len(model))
			want := 0
			for model[want] != model[i] {
				want++
			}
			if got := kit.ListIndexOf(list, kit.ListGet(list, i)); got != want {
				t.Fatalf("seed %d op %d: ListIndexOf(element %d) = %d, want %d", seed, op, i, got, want)
			}
		}
		f.SetLocal(1, core.Nil)

		switch {
		case collect == nil:
			if _, err := rt.GCStep(); err != nil {
				t.Fatal(err)
			}
		case op%7 == 0:
			if err := collect(rt); err != nil {
				t.Fatal(err)
			}
		}

		if got := kit.ListLen(list); got != len(model) {
			t.Fatalf("seed %d op %d: ListLen = %d, want %d", seed, op, got, len(model))
		}
		calls := 0
		kit.ListEach(list, func(i int, e core.Ref) {
			if i != calls || i >= len(model) {
				t.Fatalf("seed %d op %d: ListEach call %d has index %d (len %d)", seed, op, calls, i, len(model))
			}
			if got := rt.GetInt(e, vOff); got != model[i] {
				t.Fatalf("seed %d op %d: element %d = %d, want %d", seed, op, i, got, model[i])
			}
			calls++
		})
		if calls != len(model) {
			t.Fatalf("seed %d op %d: ListEach made %d calls, want %d", seed, op, calls, len(model))
		}
		// Early stop, with a buffer of any length: the blocks run in order
		// up to the one holding element stop, and no further.
		if len(model) > 0 {
			buf := make([]core.Ref, 1+op%(ListBlock+8))
			stop, seen := op*37%len(model), 0
			kit.ListEachBlock(list, buf, func(from, n int) bool {
				if from != seen || n != min(len(buf), len(model)-from) {
					t.Fatalf("seed %d op %d: block [%d, +%d) after %d elements (len %d, buffer %d)",
						seed, op, from, n, seen, len(model), len(buf))
				}
				for j, e := range buf[:n] {
					if got := rt.GetInt(e, vOff); got != model[from+j] {
						t.Fatalf("seed %d op %d: block element %d = %d, want %d", seed, op, from+j, got, model[from+j])
					}
				}
				seen += n
				return seen <= stop
			})
			if want := min(len(model), (stop/len(buf)+1)*len(buf)); seen != want {
				t.Fatalf("seed %d op %d: stopping at element %d read %d elements, want %d (buffer %d)",
					seed, op, stop, seen, want, len(buf))
			}
		}
		if !rt.GCActive() {
			if errs := rt.VerifyHeap(); len(errs) != 0 {
				t.Fatalf("seed %d op %d: heap corrupt: %v", seed, op, errs[0])
			}
		}
	}
	if kit.ListIndexOf(list, list) != -1 {
		t.Errorf("seed %d: ListIndexOf found an object the list does not hold", seed)
	}
	if len(model) <= 2*ListBlock {
		t.Errorf("seed %d: the list ended at %d elements, want more than two scan blocks", seed, len(model))
	}
	gc := rt.Stats().GC
	if gc.Collections == 0 {
		t.Errorf("seed %d: no collection ran", seed)
	}
	if collect == nil && gc.BarrierScans == 0 {
		t.Errorf("seed %d: no store ever ran the snapshot barrier's scan", seed)
	}
}
