package collections

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// world is a runtime + kit + a Value class for test payloads, with the
// container under test rooted in a global.
type world struct {
	rt   *core.Runtime
	th   *core.Thread
	kit  *Kit
	val  *core.Class
	vOff uint16
}

func newWorld(t testing.TB, heapWords int) *world {
	t.Helper()
	rt := core.New(core.Config{HeapWords: heapWords, Mode: core.Infrastructure})
	w := &world{
		rt:  rt,
		th:  rt.MainThread(),
		kit: NewKit(rt),
		val: rt.DefineClass("Value", core.DataField("v")),
	}
	w.vOff = w.val.MustFieldIndex("v")
	return w
}

// value allocates a Value carrying v.
func (w *world) value(v int64) core.Ref {
	o := w.th.New(w.val)
	w.rt.SetInt(o, w.vOff, v)
	return o
}

func (w *world) valueOf(r core.Ref) int64 { return w.rt.GetInt(r, w.vOff) }

// global allocates a container with newIn into a fresh global root and
// returns it.
func (w *world) global(name string, newIn func(f core.Frame, i int) core.Ref) core.Ref {
	f := w.th.PushFrame(1)
	defer w.th.PopFrame()
	newIn(f, 0)
	g := w.rt.AddGlobal(name)
	g.Set(f.Local(0))
	return g.Get()
}

// ---------------------------------------------------------------------------
// ArrayList

func TestListBasics(t *testing.T) {
	w := newWorld(t, 1<<14)
	list := w.global("list", w.kit.NewList)

	if w.kit.ListLen(list) != 0 {
		t.Fatal("fresh list not empty")
	}
	for i := int64(0); i < 50; i++ {
		w.kit.ListAdd(w.th, list, w.value(i))
	}
	if got := w.kit.ListLen(list); got != 50 {
		t.Fatalf("len = %d", got)
	}
	for i := 0; i < 50; i++ {
		if got := w.valueOf(w.kit.ListGet(list, i)); got != int64(i) {
			t.Errorf("elem %d = %d", i, got)
		}
	}
}

func TestListGrowthSurvivesGC(t *testing.T) {
	// A small heap forces collections during growth; the list must stay
	// intact because ListAdd pins its temporaries.
	w := newWorld(t, 4096)
	list := w.global("list", w.kit.NewList)
	for i := int64(0); i < 200; i++ {
		w.kit.ListAdd(w.th, list, w.value(i))
		for j := 0; j < 10; j++ { // churn garbage to provoke GCs
			w.value(i * 100)
		}
	}
	if w.rt.Stats().GC.Collections == 0 {
		t.Fatal("test did not provoke any GC")
	}
	for i := 0; i < 200; i++ {
		if got := w.valueOf(w.kit.ListGet(list, i)); got != int64(i) {
			t.Fatalf("elem %d = %d after GC churn", i, got)
		}
	}
}

func TestListRemoveAt(t *testing.T) {
	w := newWorld(t, 1<<14)
	list := w.global("list", w.kit.NewList)
	for i := int64(0); i < 5; i++ {
		w.kit.ListAdd(w.th, list, w.value(i))
	}
	removed := w.kit.ListRemoveAt(list, 1)
	if w.valueOf(removed) != 1 {
		t.Errorf("removed = %d", w.valueOf(removed))
	}
	want := []int64{0, 2, 3, 4}
	if w.kit.ListLen(list) != len(want) {
		t.Fatalf("len = %d", w.kit.ListLen(list))
	}
	for i, wv := range want {
		if got := w.valueOf(w.kit.ListGet(list, i)); got != wv {
			t.Errorf("elem %d = %d, want %d", i, got, wv)
		}
	}
}

// TestListRemoveAtIntoRootsBeforeUnlink is the Go-held Ref window on one
// goroutine. An element removed by ListRemoveAtInto survives a collection
// that runs before the caller next touches it (through ListRemoveAt, whose
// result only a Go variable holds, that collection frees it), and
// Frame.AssertDead registers it and drops the frame's root, so the next
// collection finds it dead.
func TestListRemoveAtIntoRootsBeforeUnlink(t *testing.T) {
	w := newWorld(t, 1<<12)
	f := w.th.PushFrame(2)
	w.kit.NewList(f, 0)
	for i := range 8 {
		w.kit.ListAdd(w.th, f.Local(0), w.value(int64(i)))
	}
	w.kit.ListRemoveAtInto(f, 1, f.Local(0), 0)
	if err := w.rt.GC(); err != nil {
		t.Fatal(err)
	}
	if err := f.AssertDead(1); err != nil {
		t.Fatalf("Frame.AssertDead on the removed element: %v", err)
	}
	if err := w.rt.GC(); err != nil {
		t.Fatal(err)
	}
	if f.Local(1) != core.Nil || len(w.rt.Violations()) != 0 {
		t.Fatalf("slot %d after Frame.AssertDead, %d violations: want nil and none", f.Local(1), len(w.rt.Violations()))
	}
	if n := w.kit.ListLen(f.Local(0)); n != 7 || w.valueOf(w.kit.ListGet(f.Local(0), 0)) != 1 {
		t.Fatalf("list of %d starting at %d after removing element 0 of 8", n, w.valueOf(w.kit.ListGet(f.Local(0), 0)))
	}
}

func TestListSetIndexOfClearEach(t *testing.T) {
	w := newWorld(t, 1<<14)
	list := w.global("list", w.kit.NewList)
	a := w.value(1)
	w.kit.ListAdd(w.th, list, a)
	b := w.value(2)
	w.kit.ListAdd(w.th, list, b)

	if got := w.kit.ListIndexOf(list, b); got != 1 {
		t.Errorf("IndexOf = %d", got)
	}
	if got := w.kit.ListIndexOf(list, w.value(9)); got != -1 {
		t.Errorf("IndexOf missing = %d", got)
	}
	w.kit.ListSet(list, 0, b)
	if w.kit.ListGet(list, 0) != b {
		t.Error("ListSet failed")
	}
	var seen []core.Ref
	w.kit.ListEach(list, func(_ int, v core.Ref) { seen = append(seen, v) })
	if len(seen) != 2 {
		t.Errorf("Each visited %d", len(seen))
	}
	w.kit.ListClear(list)
	if w.kit.ListLen(list) != 0 {
		t.Error("Clear failed")
	}
}

func TestListClearReleasesElements(t *testing.T) {
	w := newWorld(t, 1<<14)
	list := w.global("list", w.kit.NewList)
	for i := int64(0); i < 10; i++ {
		w.kit.ListAdd(w.th, list, w.value(i))
	}
	w.rt.GC()
	before := w.rt.Stats().Heap.LiveObjects
	w.kit.ListClear(list)
	w.rt.GC()
	after := w.rt.Stats().Heap.LiveObjects
	if after >= before {
		t.Errorf("Clear retained elements: %d -> %d live", before, after)
	}
}

func TestListBoundsPanics(t *testing.T) {
	w := newWorld(t, 1<<14)
	list := w.global("list", w.kit.NewList)
	defer func() {
		if _, ok := recover().(*core.IndexError); !ok {
			t.Error("no IndexError")
		}
	}()
	w.kit.ListGet(list, 0)
}

// ---------------------------------------------------------------------------
// HashMap

func TestMapBasics(t *testing.T) {
	w := newWorld(t, 1<<15)
	m := w.global("map", w.kit.NewMap)

	if _, ok := w.kit.MapGet(m, 7); ok {
		t.Error("empty map returned a value")
	}
	for i := int64(0); i < 100; i++ {
		w.kit.MapPut(w.th, m, i*3, w.value(i))
	}
	if got := w.kit.MapLen(m); got != 100 {
		t.Fatalf("len = %d", got)
	}
	for i := int64(0); i < 100; i++ {
		v, ok := w.kit.MapGet(m, i*3)
		if !ok || w.valueOf(v) != i {
			t.Fatalf("get %d = (%v,%v)", i*3, v, ok)
		}
	}
	// Replacement.
	w.kit.MapPut(w.th, m, 0, w.value(999))
	if v, _ := w.kit.MapGet(m, 0); w.valueOf(v) != 999 {
		t.Error("replacement failed")
	}
	if w.kit.MapLen(m) != 100 {
		t.Error("replacement changed size")
	}
}

func TestMapRemoveAndTombstones(t *testing.T) {
	w := newWorld(t, 1<<15)
	m := w.global("map", w.kit.NewMap)

	for i := int64(0); i < 50; i++ {
		w.kit.MapPut(w.th, m, i, w.value(i))
	}
	for i := int64(0); i < 50; i += 2 {
		if !w.kit.MapRemove(m, i) {
			t.Fatalf("remove %d failed", i)
		}
	}
	if w.kit.MapRemove(m, 0) {
		t.Error("double remove succeeded")
	}
	if got := w.kit.MapLen(m); got != 25 {
		t.Fatalf("len = %d", got)
	}
	for i := int64(1); i < 50; i += 2 {
		if v, ok := w.kit.MapGet(m, i); !ok || w.valueOf(v) != i {
			t.Fatalf("surviving key %d lost", i)
		}
	}
	// Tombstoned slots must be reusable.
	for i := int64(0); i < 50; i += 2 {
		w.kit.MapPut(w.th, m, i, w.value(-i))
	}
	if got := w.kit.MapLen(m); got != 50 {
		t.Fatalf("len after reinsert = %d", got)
	}
}

func TestMapZeroKey(t *testing.T) {
	w := newWorld(t, 1<<14)
	m := w.global("map", w.kit.NewMap)
	w.kit.MapPut(w.th, m, 0, w.value(42))
	if v, ok := w.kit.MapGet(m, 0); !ok || w.valueOf(v) != 42 {
		t.Error("key 0 broken")
	}
}

func TestMapRejectsNegativeKey(t *testing.T) {
	w := newWorld(t, 1<<14)
	m := w.global("map", w.kit.NewMap)
	defer func() {
		if recover() == nil {
			t.Error("negative key accepted")
		}
	}()
	w.kit.MapPut(w.th, m, -1, core.Nil)
}

func TestMapEach(t *testing.T) {
	w := newWorld(t, 1<<14)
	m := w.global("map", w.kit.NewMap)
	for i := int64(0); i < 20; i++ {
		w.kit.MapPut(w.th, m, i, w.value(i))
	}
	seen := map[int64]bool{}
	w.kit.MapEach(m, func(key int64, v core.Ref) {
		if w.valueOf(v) != key {
			t.Errorf("entry %d has value %d", key, w.valueOf(v))
		}
		seen[key] = true
	})
	if len(seen) != 20 {
		t.Errorf("Each visited %d entries", len(seen))
	}
}

// Property: the managed map behaves exactly like a Go map under random
// put/get/remove with GC pressure.
func TestPropertyMapMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newWorld(t, 1<<14)
		m := w.global("map", w.kit.NewMap)
		oracle := map[int64]int64{}

		for step := 0; step < 500; step++ {
			key := int64(rng.Intn(100))
			switch rng.Intn(3) {
			case 0:
				v := rng.Int63n(1 << 32)
				w.kit.MapPut(w.th, m, key, w.value(v))
				oracle[key] = v
			case 1:
				got, ok := w.kit.MapGet(m, key)
				want, wok := oracle[key]
				if ok != wok {
					return false
				}
				if ok && w.valueOf(got) != want {
					return false
				}
			case 2:
				got := w.kit.MapRemove(m, key)
				_, want := oracle[key]
				if got != want {
					return false
				}
				delete(oracle, key)
			}
		}
		return w.kit.MapLen(m) == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// LongBTree

func TestTreeBasics(t *testing.T) {
	w := newWorld(t, 1<<16)
	tree := w.global("tree", w.kit.NewTree)

	if _, ok := w.kit.TreeGet(tree, 1); ok {
		t.Error("empty tree returned a value")
	}
	const n = 500
	for i := int64(0); i < n; i++ {
		w.kit.TreePut(w.th, tree, i*7%1000, w.value(i*7%1000))
	}
	if got := w.kit.TreeLen(tree); got != n {
		t.Fatalf("len = %d, want %d", got, n)
	}
	for i := int64(0); i < n; i++ {
		key := i * 7 % 1000
		v, ok := w.kit.TreeGet(tree, key)
		if !ok || w.valueOf(v) != key {
			t.Fatalf("get %d failed", key)
		}
	}
	// In-order iteration yields sorted keys.
	last := int64(-1)
	count := 0
	w.kit.TreeEach(tree, func(key int64, v core.Ref) {
		if key <= last {
			t.Fatalf("iteration out of order: %d after %d", key, last)
		}
		last = key
		count++
	})
	if count != n {
		t.Errorf("iteration visited %d, want %d", count, n)
	}
}

func TestTreeReplace(t *testing.T) {
	w := newWorld(t, 1<<14)
	tree := w.global("tree", w.kit.NewTree)
	w.kit.TreePut(w.th, tree, 5, w.value(1))
	w.kit.TreePut(w.th, tree, 5, w.value(2))
	if w.kit.TreeLen(tree) != 1 {
		t.Error("replace changed size")
	}
	if v, _ := w.kit.TreeGet(tree, 5); w.valueOf(v) != 2 {
		t.Error("replace lost new value")
	}
}

func TestTreeRemove(t *testing.T) {
	w := newWorld(t, 1<<16)
	tree := w.global("tree", w.kit.NewTree)

	const n = 300
	for i := int64(0); i < n; i++ {
		w.kit.TreePut(w.th, tree, i, w.value(i))
	}
	// Remove every third key.
	for i := int64(0); i < n; i += 3 {
		if !w.kit.TreeRemove(tree, i) {
			t.Fatalf("remove %d failed", i)
		}
	}
	if w.kit.TreeRemove(tree, 0) {
		t.Error("double remove succeeded")
	}
	for i := int64(0); i < n; i++ {
		v, ok := w.kit.TreeGet(tree, i)
		if i%3 == 0 {
			if ok {
				t.Fatalf("removed key %d still present", i)
			}
		} else if !ok || w.valueOf(v) != i {
			t.Fatalf("surviving key %d lost", i)
		}
	}
}

func TestTreeRemoveAll(t *testing.T) {
	w := newWorld(t, 1<<16)
	tree := w.global("tree", w.kit.NewTree)
	const n = 200
	for i := int64(0); i < n; i++ {
		w.kit.TreePut(w.th, tree, i, w.value(i))
	}
	for i := int64(n - 1); i >= 0; i-- {
		if !w.kit.TreeRemove(tree, i) {
			t.Fatalf("remove %d failed", i)
		}
	}
	if w.kit.TreeLen(tree) != 0 {
		t.Errorf("len = %d after removing all", w.kit.TreeLen(tree))
	}
	// Removed contents become garbage.
	w.rt.GC()
	w.kit.TreePut(w.th, tree, 1, w.value(1)) // still usable
	if v, ok := w.kit.TreeGet(tree, 1); !ok || w.valueOf(v) != 1 {
		t.Error("tree unusable after emptying")
	}
}
