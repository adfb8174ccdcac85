package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/report"
)

// newRT builds a default Infrastructure runtime for tests.
func newRT(t testing.TB, words int) *Runtime {
	t.Helper()
	return New(Config{HeapWords: words, Mode: Infrastructure})
}

func TestAllocAndFieldRoundtrip(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node", RefField("next"), DataField("val"))
	next := node.MustFieldIndex("next")
	val := node.MustFieldIndex("val")

	f := rt.MainThread().PushFrame(2)
	a := f.New(0, node)
	b := f.New(1, node)
	rt.SetRef(a, next, b)
	rt.SetInt(a, val, -42)

	if rt.GetRef(a, next) != b {
		t.Error("ref field roundtrip failed")
	}
	if rt.GetInt(a, val) != -42 {
		t.Error("int field roundtrip failed")
	}
	if rt.ClassOf(a) != node {
		t.Error("ClassOf failed")
	}
}

func TestGCKeepsRootedCollectsGarbage(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node", RefField("next"))
	next := node.MustFieldIndex("next")
	th := rt.MainThread()

	g := rt.AddGlobal("head")
	f := th.PushFrame(1)
	a := f.New(0, node)
	g.Set(a)
	b := f.New(0, node)
	rt.SetRef(a, next, b)
	th.PopFrame()
	th.New(node) // garbage

	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Heap.LiveObjects != 2 {
		t.Errorf("LiveObjects = %d, want 2", st.Heap.LiveObjects)
	}
	if st.GC.Collections != 1 {
		t.Errorf("Collections = %d, want 1", st.GC.Collections)
	}
	// Contents survive.
	if rt.GetRef(a, next) != b {
		t.Error("object graph damaged by GC")
	}
}

func TestFrameLocalsAreRoots(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	f := th.PushFrame(1)
	a := th.New(node)
	f.SetLocal(0, a)
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Heap.LiveObjects != 1 {
		t.Error("frame-rooted object collected")
	}
	th.PopFrame()
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Heap.LiveObjects != 0 {
		t.Error("object survived after frame popped")
	}
}

func TestAllocationTriggersGC(t *testing.T) {
	rt := newRT(t, 512)
	node := rt.DefineClass("Node", DataField("a"), DataField("b"))
	th := rt.MainThread()
	// Allocate far more than the heap holds; everything is garbage, so
	// automatic collections must keep making space.
	for i := 0; i < 10_000; i++ {
		th.New(node)
	}
	if rt.Stats().GC.Collections == 0 {
		t.Error("no automatic collections ran")
	}
}

func TestOutOfMemoryPanic(t *testing.T) {
	rt := newRT(t, 512)
	node := rt.DefineClass("Node", RefField("next"))
	next := node.MustFieldIndex("next")
	th := rt.MainThread()
	g := rt.AddGlobal("head")

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on exhausted heap")
		}
		if _, ok := r.(*OutOfMemoryError); !ok {
			t.Fatalf("panic value %T, want *OutOfMemoryError", r)
		}
	}()
	// Build an ever-growing live list until the heap cannot hold it.
	for {
		n := th.New(node)
		rt.SetRef(n, next, g.Get())
		g.Set(n)
	}
}

// TestOutOfMemoryCollectsOnce: on a stop-the-world runtime an allocation
// no collection can satisfy fails after exactly one collection. With no
// owner vacated, a second would trace the same roots and free nothing.
func TestOutOfMemoryCollectsOnce(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node", RefField("next"))
	next := node.MustFieldIndex("next")
	th := rt.MainThread()
	g := rt.AddGlobal("head")
	for {
		before := rt.Stats().GC.Collections
		n, err := th.TryNew(node)
		if err != nil {
			var oom *OutOfMemoryError
			if !errors.As(err, &oom) {
				t.Fatalf("error %T, want *OutOfMemoryError", err)
			}
			if got := rt.Stats().GC.Collections - before; got != 1 {
				t.Fatalf("the failed allocation ran %d collections, want 1", got)
			}
			return
		}
		rt.SetRef(n, next, g.Get())
		g.Set(n)
	}
}

// TestExhaustionFreesDeadOwnersRegion: an unrooted owner dies in a
// collection of the exhaustion ladder, but its region survives that
// collection on the ownership pre-phase's marks. The allocation fits only
// once the region is freed, so the ladder must collect once more. With a
// chain of unrooted owners, each collection frees one more owner.
func TestExhaustionFreesDeadOwnersRegion(t *testing.T) {
	const heapWords, items, itemWords = 1 << 12, 40, 50
	for _, chain := range []int{1, 2} {
		t.Run(fmt.Sprintf("chain%d", chain), func(t *testing.T) {
			rt := newRT(t, heapWords)
			owner := rt.DefineClass("Owner", RefField("items"))
			field := owner.MustFieldIndex("items")
			th := rt.MainThread()
			g := rt.AddGlobal("owner")
			o := th.New(owner)
			g.Set(o)
			// Every owner but the last reaches the next one and owns a node.
			for k := 1; k < chain; k++ {
				if err := rt.AssertOwnedBy(o, th.New(owner)); err != nil {
					t.Fatal(err)
				}
				next := th.New(owner)
				rt.SetRef(o, field, next)
				o = next
			}
			arr := th.NewRefArray(items)
			rt.SetRef(o, field, arr)
			for i := 0; i < items; i++ {
				it := th.NewDataArray(itemWords)
				rt.ArrSetRef(arr, i, it)
				if err := rt.AssertOwnedBy(o, it); err != nil {
					t.Fatal(err)
				}
			}
			g.Set(Nil)
			if free := rt.Stats().Heap.FreeWords; free+items*itemWords < heapWords*3/4 {
				t.Fatalf("setup: %d words free, region of %d words", free, items*itemWords)
			}
			before := rt.Stats().GC.Collections
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("allocation that fits once the region is freed: %v", p)
					}
				}()
				th.NewDataArray(heapWords * 3 / 4)
			}()
			if got, want := rt.Stats().GC.Collections-before, uint64(chain+1); got != want {
				t.Errorf("the allocation ran %d collections, want %d", got, want)
			}
			if n := len(rt.Violations()); n != 0 {
				t.Errorf("violations = %d, want 0", n)
			}
		})
	}
}

// TestExhaustionAfterOpenCycle: when an allocation exhausts the heap with a
// cycle open, completing that cycle is the first rung, and it cannot free
// what was allocated while it ran (born black). The full collection that
// follows does, and the allocation succeeds.
func TestExhaustionAfterOpenCycle(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 13, Mode: Infrastructure, IncrementalBudget: 1,
		gcTrigger: 0.9, assistSlack: 1})
	node := rt.DefineClass("Node", RefField("next"))
	next := node.MustFieldIndex("next")
	th := rt.MainThread()
	g := rt.AddGlobal("head")
	for rt.Stats().Heap.LiveWords < 1<<12 {
		n := th.New(node)
		rt.SetRef(n, next, g.Get())
		g.Set(n)
	}
	if err := rt.StartGC(); err != nil {
		t.Fatal(err)
	}
	for rt.Stats().Heap.FreeWords > 1000 {
		th.NewDataArray(100) // garbage, born black
	}
	if !rt.GCActive() {
		t.Fatal("the cycle closed before the heap was exhausted")
	}
	before := rt.Stats().GC
	th.NewDataArray(1500)
	after := rt.Stats().GC
	if got := after.Collections - before.Collections; got != 2 {
		t.Errorf("the allocation ran %d collections, want 2 (the open cycle, then a full one)", got)
	}
	if got := after.IncrementalCycles - before.IncrementalCycles; got != 1 {
		t.Errorf("the allocation completed %d incremental cycles, want 1", got)
	}
}

func TestAssertDeadSatisfied(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	obj := th.New(node) // never rooted
	if err := rt.AssertDead(obj); err != nil {
		t.Fatal(err)
	}
	// Frame.AssertDead registers a local's object and drops the root.
	f := th.PushFrame(1)
	f.New(0, node)
	if err := f.AssertDead(0); err != nil || f.Local(0) != Nil {
		t.Fatalf("Frame.AssertDead: %v, slot %d after", err, f.Local(0))
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Violations()); n != 0 {
		t.Errorf("violations = %d, want 0", n)
	}
}

func TestAssertDeadViolatedWithPath(t *testing.T) {
	rt := newRT(t, 1<<12)
	company := rt.DefineClass("Company", RefField("warehouse"))
	warehouse := rt.DefineClass("Warehouse", RefField("order"))
	order := rt.DefineClass("Order")
	th := rt.MainThread()

	f := th.PushFrame(1)
	c := f.New(0, company)
	rt.AddGlobal("company").Set(c)
	w := f.New(0, warehouse)
	rt.SetRef(c, company.MustFieldIndex("warehouse"), w)
	o := f.New(0, order)
	rt.SetRef(w, warehouse.MustFieldIndex("order"), o)
	th.PopFrame()

	if err := rt.AssertDead(o); err != nil {
		t.Fatal(err)
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	vs := rt.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1", len(vs))
	}
	v := vs[0]
	if v.Kind != report.DeadReachable {
		t.Errorf("kind = %v", v.Kind)
	}
	if v.Class != "Order" {
		t.Errorf("class = %q", v.Class)
	}
	wantPath := []string{"Company", "Warehouse", "Order"}
	if len(v.Path) != len(wantPath) {
		t.Fatalf("path = %v", v.Path)
	}
	for i, e := range v.Path {
		if e.Class != wantPath[i] {
			t.Errorf("path[%d] = %q, want %q", i, e.Class, wantPath[i])
		}
	}
	// Figure-1 style formatting.
	text := v.Format()
	if !strings.Contains(text, "asserted dead is reachable") ||
		!strings.Contains(text, "Company ->") ||
		!strings.HasSuffix(text, "Order\n") {
		t.Errorf("format:\n%s", text)
	}
}

func TestAssertDeadRepeatsEachGC(t *testing.T) {
	// The dead bit stays set (as in the paper's implementation), so a
	// still-reachable object is reported at every full collection.
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	obj := th.New(node)
	rt.AddGlobal("g").Set(obj)
	rt.AssertDead(obj)
	rt.GC()
	rt.GC()
	if n := len(rt.Violations()); n != 2 {
		t.Errorf("violations after two GCs = %d, want 2", n)
	}
}

func TestAssertDeadForceReclaims(t *testing.T) {
	rt := New(Config{
		HeapWords: 1 << 12,
		Mode:      Infrastructure,
		Handler: report.HandlerFunc(func(*report.Violation) report.Action {
			return report.Force
		}),
	})
	node := rt.DefineClass("Node", RefField("next"))
	next := node.MustFieldIndex("next")
	th := rt.MainThread()

	f := th.PushFrame(1)
	holder := f.New(0, node)
	rt.AddGlobal("g").Set(holder)
	victim := f.New(0, node)
	rt.SetRef(holder, next, victim)
	th.PopFrame()

	rt.AssertDead(victim)
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Heap.LiveObjects != 1 {
		t.Errorf("LiveObjects = %d, want 1 (victim forced dead)", rt.Stats().Heap.LiveObjects)
	}
	if rt.GetRef(holder, next) != Nil {
		t.Error("holder's reference not nulled")
	}
}

func TestAssertDeadHalt(t *testing.T) {
	rt := New(Config{
		HeapWords: 1 << 12,
		Mode:      Infrastructure,
		Handler: report.HandlerFunc(func(*report.Violation) report.Action {
			return report.Halt
		}),
	})
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	obj := th.New(node)
	rt.AddGlobal("g").Set(obj)
	rt.AssertDead(obj)

	err := rt.GC()
	var halt *report.HaltError
	if !errors.As(err, &halt) {
		t.Fatalf("GC error = %v, want *report.HaltError", err)
	}
	if halt.Violation.Class != "Node" {
		t.Errorf("halt violation class = %q", halt.Violation.Class)
	}
	// The heap must still be consistent: another GC succeeds... with the
	// same still-reachable object, so it halts again; drop the root.
	rt.AddGlobal("g2") // touch globals to prove the runtime is alive
}

func TestAssertDeadOnBadRef(t *testing.T) {
	rt := newRT(t, 1<<12)
	if err := rt.AssertDead(Nil); err == nil {
		t.Error("AssertDead(Nil) did not error")
	}
	if err := rt.MainThread().PushFrame(1).AssertDead(0); err == nil {
		t.Error("Frame.AssertDead on a nil slot did not error")
	}
}

func TestRegionAssertAllDead(t *testing.T) {
	rt := newRT(t, 1<<13)
	node := rt.DefineClass("Node", RefField("next"))
	th := rt.MainThread()

	escape := rt.AddGlobal("escape")

	if err := th.StartRegion(); err != nil {
		t.Fatal(err)
	}
	var leaked Ref
	for i := 0; i < 10; i++ {
		o := th.New(node)
		if i == 7 {
			escape.Set(o) // one object escapes the region
			leaked = o
		}
	}
	if err := th.AssertAllDead(); err != nil {
		t.Fatal(err)
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	vs := rt.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1", len(vs))
	}
	if vs[0].Kind != report.RegionSurvivor {
		t.Errorf("kind = %v, want RegionSurvivor", vs[0].Kind)
	}
	if vs[0].Object != leaked {
		t.Errorf("object = %d, want %d", vs[0].Object, leaked)
	}
}

func TestRegionSurvivesInterveningGC(t *testing.T) {
	// Objects that die during a GC inside the region bracket must be
	// purged from the queue, not asserted dead later against recycled
	// memory.
	rt := newRT(t, 1024)
	node := rt.DefineClass("Node", DataField("x"))
	th := rt.MainThread()

	th.StartRegion()
	for i := 0; i < 2000; i++ { // forces several automatic GCs
		th.New(node)
	}
	if err := th.AssertAllDead(); err != nil {
		t.Fatal(err)
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Violations()); n != 0 {
		t.Errorf("violations = %d, want 0", n)
	}
}

func TestAssertAllDeadUnmatched(t *testing.T) {
	rt := newRT(t, 1<<12)
	if err := rt.MainThread().AssertAllDead(); err == nil {
		t.Error("unmatched AssertAllDead did not error")
	}
}

func TestAssertInstancesViolation(t *testing.T) {
	rt := newRT(t, 1<<13)
	searcher := rt.DefineClass("IndexSearcher")
	th := rt.MainThread()
	arr := th.NewRefArray(32)
	rt.AddGlobal("searchers").Set(arr)
	for i := 0; i < 32; i++ {
		rt.ArrSetRef(arr, i, th.New(searcher))
	}
	if err := rt.AssertInstances(searcher, 1); err != nil {
		t.Fatal(err)
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	vs := rt.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1", len(vs))
	}
	if vs[0].Kind != report.TooManyInstances || vs[0].Count != 32 || vs[0].Limit != 1 {
		t.Errorf("violation = %+v", vs[0])
	}
}

func TestAssertInstancesWithinLimit(t *testing.T) {
	rt := newRT(t, 1<<12)
	c := rt.DefineClass("Singleton")
	th := rt.MainThread()
	rt.AddGlobal("it").Set(th.New(c))
	rt.AssertInstances(c, 1)
	rt.GC()
	if n := len(rt.Violations()); n != 0 {
		t.Errorf("violations = %d, want 0", n)
	}
}

func TestAssertUnshared(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("TreeNode", RefField("left"), RefField("right"))
	left := node.MustFieldIndex("left")
	right := node.MustFieldIndex("right")
	th := rt.MainThread()

	f := th.PushFrame(1)
	root := f.New(0, node)
	rt.AddGlobal("tree").Set(root)
	child := f.New(0, node)
	rt.SetRef(root, left, child)
	th.PopFrame()
	rt.AssertUnshared(child)

	rt.GC()
	if n := len(rt.Violations()); n != 0 {
		t.Fatalf("tree-shaped: violations = %d, want 0", n)
	}

	// Turn the tree into a DAG: second pointer to child.
	rt.SetRef(root, right, child)
	rt.GC()
	vs := rt.Violations()
	if len(vs) != 1 || vs[0].Kind != report.SharedObject {
		t.Fatalf("DAG-shaped: violations = %+v, want one SharedObject", vs)
	}
}

func TestBaseModeRejectsAssertions(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 12, Mode: Base})
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	obj := th.New(node)
	rt.AddGlobal("g").Set(obj)

	if err := rt.AssertDead(obj); !errors.Is(err, ErrAssertionsDisabled) {
		t.Errorf("AssertDead err = %v", err)
	}
	if err := rt.AssertUnshared(obj); !errors.Is(err, ErrAssertionsDisabled) {
		t.Errorf("AssertUnshared err = %v", err)
	}
	if err := rt.AssertInstances(node, 1); !errors.Is(err, ErrAssertionsDisabled) {
		t.Errorf("AssertInstances err = %v", err)
	}
	if err := rt.AssertOwnedBy(obj, obj); !errors.Is(err, ErrAssertionsDisabled) {
		t.Errorf("AssertOwnedBy err = %v", err)
	}
	if err := th.StartRegion(); !errors.Is(err, ErrAssertionsDisabled) {
		t.Errorf("StartRegion err = %v", err)
	}
	// GC still works.
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Heap.LiveObjects != 1 {
		t.Error("Base-mode GC wrong")
	}
}

func TestStringRoundtrip(t *testing.T) {
	rt := newRT(t, 1<<13)
	th := rt.MainThread()
	cases := []string{"", "a", "hello", "exactly8", "九 bytes!", strings.Repeat("x", 100)}
	for _, s := range cases {
		r := th.NewString(s)
		if got := rt.StringAt(r); got != s {
			t.Errorf("StringAt = %q, want %q", got, s)
		}
		if got := rt.StringLen(r); got != len(s) {
			t.Errorf("StringLen = %d, want %d", got, len(s))
		}
	}
}

// TestNewStringPayloadWords pins the payload layout NewString packs — the
// length word, then the bytes eight per word, low byte first, the last word
// zero-padded — for every length around one and two words and for bytes with
// the high bit set.
func TestNewStringPayloadWords(t *testing.T) {
	eachRegime(t, func(t *testing.T, rt *Runtime) {
		f := rt.MainThread().PushFrame(1)
		for n := 0; n <= 17; n++ {
			b := make([]byte, n)
			want := make([]uint64, 1+(n+7)/8)
			want[0] = uint64(n)
			for i := range b {
				b[i] = byte(0xf1 + 7*i)
				want[1+i/8] |= uint64(b[i]) << (8 * uint(i%8))
			}
			r := f.NewString(0, string(b))
			if got := rt.ArrLen(r); got != len(want) {
				t.Fatalf("length %d: %d payload words, want %d", n, got, len(want))
			}
			for w := range want {
				if got := rt.ArrGetData(r, w); got != want[w] {
					t.Errorf("length %d: word %d = %#x, want %#x", n, w, got, want[w])
				}
			}
			if got := rt.StringAt(r); got != string(b) {
				t.Errorf("length %d: StringAt = %q, want %q", n, got, b)
			}
		}
	})
}

func TestStringsSurviveGC(t *testing.T) {
	rt := newRT(t, 1<<13)
	th := rt.MainThread()
	r := th.NewString("persistent data")
	rt.AddGlobal("s").Set(r)
	rt.GC()
	if got := rt.StringAt(r); got != "persistent data" {
		t.Errorf("string damaged by GC: %q", got)
	}
}

// TestArrayBoundsCheck: an out-of-bounds array access panics with an
// IndexError in every locking regime and leaves no lock held.
func TestArrayBoundsCheck(t *testing.T) {
	eachRegime(t, func(t *testing.T, rt *Runtime) {
		f := rt.MainThread().PushFrame(2)
		arr := f.NewRefArray(0, 3)
		data := f.NewDataArray(1, 3)
		for name, f := range map[string]func(){
			"ArrGetRef":  func() { rt.ArrGetRef(arr, 3) },
			"ArrSetRef":  func() { rt.ArrSetRef(arr, -1, arr) },
			"ArrGetData": func() { rt.ArrGetData(data, 3) },
			"ArrSetData": func() { rt.ArrSetData(data, 4, 1) },
		} {
			func() {
				defer func() {
					if _, ok := recover().(*IndexError); !ok {
						t.Errorf("%s: no IndexError on out-of-bounds access", name)
					}
				}()
				f()
			}()
			assertUnlocked(t, rt)
		}
	})
}

// TestFieldBoundsCheck pins the field accessors' kind/offset guard: a field
// access routed at an array (which would silently overwrite the length
// word) or past an instance's last field must panic with a FieldError
// instead of corrupting the heap — in every locking regime, and without
// leaving a lock behind.
func TestFieldBoundsCheck(t *testing.T) {
	eachRegime(t, func(t *testing.T, rt *Runtime) {
		node := rt.DefineClass("FNode", RefField("a"), DataField("d"))
		aOff := node.MustFieldIndex("a")
		fr := rt.MainThread().PushFrame(2)
		obj := fr.New(0, node)
		arr := fr.NewRefArray(1, 3)

		wantPanic := func(name string, f func()) {
			t.Helper()
			defer assertUnlocked(t, rt)
			defer func() {
				t.Helper()
				if _, ok := recover().(*FieldError); !ok {
					t.Errorf("%s: no FieldError", name)
				}
			}()
			f()
		}
		wantPanic("SetRef on array", func() { rt.SetRef(arr, aOff, obj) })
		wantPanic("GetRef on array", func() { rt.GetRef(arr, aOff) })
		wantPanic("SetData on array", func() { rt.SetData(arr, aOff, 7) })
		wantPanic("SetRef at offset 0", func() { rt.SetRef(obj, 0, obj) })
		wantPanic("SetRef past last field", func() { rt.SetRef(obj, uint16(node.FieldWords)+1, obj) })

		// In-bounds accesses still work.
		rt.SetRef(obj, aOff, obj)
		if got := rt.GetRef(obj, aOff); got != obj {
			t.Errorf("GetRef after SetRef = %d, want %d", got, obj)
		}
	})
}

// mutatorModel drives an arbitrary interleaving of allocations, pointer
// stores and collections and checks that a shadow model of the reachable
// graph is always preserved.
func mutatorModel() func(seed int64) bool {
	return func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure})
		node := rt.DefineClass("Node", RefField("next"), DataField("val"))
		next := node.MustFieldIndex("next")
		val := node.MustFieldIndex("val")
		th := rt.MainThread()

		const slots = 8
		f := th.PushFrame(slots)
		shadow := make(map[Ref]int64) // rooted objects -> expected val

		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // allocate into a random slot
				i := rng.Intn(slots)
				old := f.Local(i)
				if old != Nil && !slotAliased(f, i, slots) {
					delete(shadow, old)
				}
				o := th.New(node)
				v := rng.Int63()
				rt.SetInt(o, val, v)
				f.SetLocal(i, o)
				shadow[o] = v
			case 5, 6: // link two rooted objects
				a, b := f.Local(rng.Intn(slots)), f.Local(rng.Intn(slots))
				if a != Nil {
					rt.SetRef(a, next, b)
				}
			case 7: // clear a slot
				i := rng.Intn(slots)
				old := f.Local(i)
				f.SetLocal(i, Nil)
				if old != Nil && !slotAliased(f, i, slots) {
					delete(shadow, old)
				}
			case 8, 9:
				if err := rt.GC(); err != nil {
					return false
				}
			}
			// Verify every rooted object still holds its value.
			for i := 0; i < slots; i++ {
				o := f.Local(i)
				if o == Nil {
					continue
				}
				if want, ok := shadow[o]; ok && rt.GetInt(o, val) != want {
					return false
				}
			}
		}
		return true
	}
}

// slotAliased reports whether the ref in slot i also appears in another
// slot (shadow bookkeeping helper).
func slotAliased(f *Frame, i, slots int) bool {
	r := f.Local(i)
	for j := 0; j < slots; j++ {
		if j != i && f.Local(j) == r {
			return true
		}
	}
	return false
}

func TestPropertyMutatorModelMarkSweep(t *testing.T) {
	if err := quick.Check(mutatorModel(), &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
