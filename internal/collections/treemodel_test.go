package collections

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

// TestTreeModel runs seeded TreePut / TreeGet / TreeRemove / TreeFirst /
// TreeEach scripts against a sorted Go model in the three regimes
// TestListModel uses: one mutator on a stop-the-world heap, a shared runtime,
// and an incremental one whose cycle is held open across ops, so that every
// node shift, split, borrow and merge also runs under the snapshot barrier.
// Two scripts per seed:
//
//   - "random": 600 steps over 200 keys, half puts (a new key or a replaced
//     value), a quarter gets and a quarter removes, with a small heap
//     collecting mid-operation;
//   - "orders": the order table's pattern, puts of ever newer keys and runs of
//     oldest-first removals that empty leaves from the left (the borrow and
//     merge paths), with random gets and removes between them.
//
// After every op the tree equals the model: its length, its first entry and
// its in-order walk, key by key and value by value. VerifyHeap is empty at
// every step where no cycle is open.
func TestTreeModel(t *testing.T) {
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
			for _, orders := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := regime.cfg
					cfg.HeapWords = 1 << 14
					cfg.Mode = core.Infrastructure
					rt := core.New(cfg)
					if regime.shared {
						rt.NewThread("second")
					}
					runTreeModel(t, rt, seed, orders, regime.collect)
				}
			}
		})
	}
}

// treeEntry is one model mapping: the key and the id of its Value.
type treeEntry struct{ key, id int64 }

// runTreeModel drives one script on rt. collect, when non-nil, runs every few
// ops; when nil the runtime is incremental and a cycle is kept open.
func runTreeModel(t *testing.T, rt *core.Runtime, seed int64, orders bool, collect func(*core.Runtime) error) {
	t.Helper()
	script := "random"
	if orders {
		script = "orders"
	}
	rng := rand.New(rand.NewSource(seed))
	th, kit := rt.MainThread(), NewKit(rt)
	val := rt.DefineClass("Value", core.DataField("v"))
	vOff := val.MustFieldIndex("v")
	f := th.PushFrame(2)
	tree := kit.NewTree(f, 0)
	var model []treeEntry // sorted by key
	find := func(key int64) (int, bool) {
		i := sort.Search(len(model), func(i int) bool { return model[i].key >= key })
		return i, i < len(model) && model[i].key == key
	}
	// put stores a fresh Value carrying the next id, rooted in local 1 until
	// the tree holds it.
	nextID, newest := int64(0), int64(0)
	put := func(key int64) {
		nextID++
		f.New(1, val)
		rt.SetInt(f.Local(1), vOff, nextID)
		kit.TreePut(th, tree, key, f.Local(1))
		f.SetLocal(1, core.Nil)
		if i, ok := find(key); ok {
			model[i].id = nextID
		} else {
			model = append(model[:i], append([]treeEntry{{key, nextID}}, model[i:]...)...)
		}
	}
	remove := func(op int, key int64) {
		i, want := find(key)
		if got := kit.TreeRemove(tree, key); got != want {
			t.Fatalf("%s seed %d op %d: TreeRemove(%d) = %v, want %v", script, seed, op, key, got, want)
		}
		if want {
			model = append(model[:i], model[i+1:]...)
		}
	}
	randomKey := func() int64 { return rng.Int63n(200) }
	if orders {
		// Around the live window, so that some keys miss on either side.
		randomKey = func() int64 { return newest - 64 + rng.Int63n(72) }
	}

	maxHeight := 0
	for op := 0; op < 600; op++ {
		if collect == nil {
			if err := rt.StartGC(); err != nil { // a no-op while the cycle is open
				t.Fatal(err)
			}
		}
		// k in [0, 20) picks a put below puts, a delivery run of at most
		// longest removals below runs, and a get or a remove in equal shares
		// of the rest. The random script is half puts, a quarter gets and a
		// quarter removes; the orders script grows the table for 200 ops,
		// holds it for 200 and drains it for 200.
		puts, runs, longest := 10, 10, 0
		if orders {
			phase := op / 200
			puts, runs, longest = [3]int{18, 10, 4}[phase], [3]int{18, 14, 14}[phase], [3]int{0, 4, 12}[phase]
		}
		switch k := rng.Intn(20); {
		case k < puts && !orders:
			put(randomKey())
		case k < puts: // new order
			newest++
			put(newest)
		case k < runs: // delivery: a run of oldest-first removals
			for n := 1 + rng.Intn(longest); n > 0 && len(model) > 0; n-- {
				key, v, ok := kit.TreeFirst(tree)
				if !ok || key != model[0].key || rt.GetInt(v, vOff) != model[0].id {
					t.Fatalf("%s seed %d op %d: TreeFirst = %d (ok %v), want %d", script, seed, op, key, ok, model[0].key)
				}
				remove(op, key)
			}
		case k < runs+(20-runs)/2: // get
			key := randomKey()
			i, want := find(key)
			v, ok := kit.TreeGet(tree, key)
			if ok != want || ok && rt.GetInt(v, vOff) != model[i].id {
				t.Fatalf("%s seed %d op %d: TreeGet(%d) found %v, want %v", script, seed, op, key, ok, want)
			}
		default:
			remove(op, randomKey())
		}

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

		if got := kit.TreeLen(tree); got != len(model) {
			t.Fatalf("%s seed %d op %d: TreeLen = %d, want %d", script, seed, op, got, len(model))
		}
		key, v, ok := kit.TreeFirst(tree)
		if ok != (len(model) > 0) || ok && (key != model[0].key || rt.GetInt(v, vOff) != model[0].id) {
			t.Fatalf("%s seed %d op %d: TreeFirst = %d (ok %v), model has %d keys", script, seed, op, key, ok, len(model))
		}
		calls := 0
		kit.TreeEach(tree, func(key int64, v core.Ref) {
			if calls >= len(model) || key != model[calls].key || rt.GetInt(v, vOff) != model[calls].id {
				t.Fatalf("%s seed %d op %d: TreeEach entry %d is key %d", script, seed, op, calls, key)
			}
			calls++
		})
		if calls != len(model) {
			t.Fatalf("%s seed %d op %d: TreeEach made %d calls, want %d", script, seed, op, calls, len(model))
		}
		maxHeight = max(maxHeight, kit.treeHeight(tree))
		if !rt.GCActive() {
			if errs := rt.VerifyHeap(); len(errs) != 0 {
				t.Fatalf("%s seed %d op %d: heap corrupt: %v", script, seed, op, errs[0])
			}
		}
	}
	if want := map[bool]int{false: 2, true: 3}[orders]; maxHeight < want {
		t.Errorf("%s seed %d: the tree grew to height %d, want %d", script, seed, maxHeight, want)
	}
	if orders && len(model) > 16 {
		t.Errorf("%s seed %d: the drain left %d keys, want at most one leaf", script, seed, len(model))
	}
	gc := rt.Stats().GC
	if gc.Collections == 0 {
		t.Errorf("%s seed %d: no collection ran", script, seed)
	}
	if collect == nil && gc.BarrierScans == 0 {
		t.Errorf("%s seed %d: no store ever ran the snapshot barrier's scan", script, seed)
	}
}

// treeHeight is the number of levels from the root to the leaves.
func (k *Kit) treeHeight(tree core.Ref) int {
	h := 0
	for x := k.rt.GetRef(tree, k.treeRoot); x != core.Nil; h++ {
		if k.nLeaf(x) {
			return h + 1
		}
		x = k.nChild(x, 0)
	}
	return h
}

// BenchmarkTreeOldestFirst is the order table's steady state: a 40-key tree
// that takes its oldest key out and puts the next newest one in, as a
// delivery and a new order do. Every put stores the same value, so the loop
// measures the tree, not the allocator; splits still allocate nodes.
func BenchmarkTreeOldestFirst(b *testing.B) {
	const size = 40
	w := newWorld(b, 1<<16)
	tree := w.global("tree", w.kit.NewTree)
	f := w.th.PushFrame(1)
	defer w.th.PopFrame()
	f.New(0, w.val)
	for key := int64(0); key < size; key++ {
		w.kit.TreePut(w.th, tree, key, f.Local(0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, _, ok := w.kit.TreeFirst(tree)
		if !ok || key != int64(i) {
			b.Fatalf("oldest key %d (%v), want %d", key, ok, i)
		}
		w.kit.TreeRemove(tree, key)
		w.kit.TreePut(w.th, tree, key+size, f.Local(0))
	}
}
