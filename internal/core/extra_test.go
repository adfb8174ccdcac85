package core

import (
	"testing"

	"repro/internal/report"
)

func TestSubclassFieldsTraced(t *testing.T) {
	rt := newRT(t, 1<<12)
	base := rt.DefineClass("Entity", RefField("tag"))
	sub := rt.DefineSubclass("Order", base, RefField("customer"))
	tag := sub.MustFieldIndex("tag") // inherited
	customer := sub.MustFieldIndex("customer")
	th := rt.MainThread()

	f := th.PushFrame(1)
	o := f.New(0, sub)
	rt.AddGlobal("g").Set(o)
	a := f.New(0, base)
	rt.SetRef(o, tag, a)
	b := f.New(0, base)
	rt.SetRef(o, customer, b)
	th.PopFrame()

	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	// Both the inherited and the new ref field must keep their targets.
	if rt.Stats().Heap.LiveObjects != 3 {
		t.Errorf("LiveObjects = %d, want 3", rt.Stats().Heap.LiveObjects)
	}
	if rt.GetRef(o, tag) != a || rt.GetRef(o, customer) != b {
		t.Error("subclass fields damaged by GC")
	}
	if rt.ClassOf(o) != sub {
		t.Error("ClassOf(subclass instance) wrong")
	}
}

func TestAssertInstancesIncludingSubclassesEndToEnd(t *testing.T) {
	rt := newRT(t, 1<<12)
	conn := rt.DefineClass("Conn")
	tls := rt.DefineSubclass("TLSConn", conn)
	th := rt.MainThread()

	arr := th.NewRefArray(3)
	rt.AddGlobal("g").Set(arr)
	rt.ArrSetRef(arr, 0, th.New(conn))
	rt.ArrSetRef(arr, 1, th.New(tls))
	rt.ArrSetRef(arr, 2, th.New(tls))

	if err := rt.AssertInstancesIncludingSubclasses(conn, 2); err != nil {
		t.Fatal(err)
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	vs := rt.Violations()
	if len(vs) != 1 || vs[0].Count != 3 {
		t.Fatalf("violations = %+v, want one with count 3", vs)
	}

	// The exact-type assertion would pass: only one Conn proper.
	rt2 := newRT(t, 1<<12)
	conn2 := rt2.DefineClass("Conn")
	tls2 := rt2.DefineSubclass("TLSConn", conn2)
	th2 := rt2.MainThread()
	arr2 := th2.NewRefArray(3)
	rt2.AddGlobal("g").Set(arr2)
	rt2.ArrSetRef(arr2, 0, th2.New(conn2))
	rt2.ArrSetRef(arr2, 1, th2.New(tls2))
	rt2.ArrSetRef(arr2, 2, th2.New(tls2))
	rt2.AssertInstances(conn2, 2)
	rt2.GC()
	if n := len(rt2.Violations()); n != 0 {
		t.Errorf("exact-type limit violated by subclass instances: %d", n)
	}
}

func TestRegionsIndependentPerThread(t *testing.T) {
	// The paper: "each thread can independently be either in or out of a
	// region". Thread A's region must not capture thread B's allocations.
	rt := newRT(t, 1<<13)
	node := rt.DefineClass("Node")
	a := rt.MainThread()
	b := rt.NewThread("b")

	if err := a.StartRegion(); err != nil {
		t.Fatal(err)
	}
	// B allocates a long-lived object while A's region is open.
	escape := rt.AddGlobal("escape")
	fb := b.PushFrame(1)
	escape.Set(fb.New(0, node))
	if err := a.AssertAllDead(); err != nil {
		t.Fatal(err)
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Violations()); n != 0 {
		t.Errorf("thread B's allocation blamed on A's region: %d violations", n)
	}

	// And B's own region does capture it.
	if err := b.StartRegion(); err != nil {
		t.Fatal(err)
	}
	escape.Set(fb.New(0, node))
	fb.SetLocal(0, Nil)
	if err := b.AssertAllDead(); err != nil {
		t.Fatal(err)
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	vs := rt.Violations()
	if len(vs) != 1 || vs[0].Kind != report.RegionSurvivor {
		t.Errorf("violations = %+v", vs)
	}
}

// TestCollectOnMarkSweepIsFull: every collection of the one collector is a
// full-heap one — it checks the registered assertions and reclaims all
// unreachable objects in a single stop-the-world cycle.
func TestCollectOnMarkSweepIsFull(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	obj := th.New(node)
	rt.AddGlobal("g").Set(obj)
	rt.AssertDead(obj)
	th.New(node) // garbage from the start
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Violations()); n != 1 {
		t.Errorf("GC did not check assertions: %d violations", n)
	}
	if n := len(rt.LiveSet()); n != 1 {
		t.Errorf("GC left %d objects live, want 1", n)
	}
	st := rt.Stats().GC
	if st.Collections != 1 || st.IncrementalCycles != 0 || st.FreedObjects != 1 {
		t.Errorf("one full collection expected: collections=%d incremental=%d freed=%d",
			st.Collections, st.IncrementalCycles, st.FreedObjects)
	}
}

func TestViolationsReturnsCopy(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node")
	obj := rt.MainThread().New(node)
	rt.AddGlobal("g").Set(obj)
	rt.AssertDead(obj)
	rt.GC()

	vs := rt.Violations()
	if len(vs) != 1 {
		t.Fatal("setup failed")
	}
	vs[0] = nil // mutating the copy must not affect the runtime's record
	if got := rt.Violations(); len(got) != 1 || got[0] == nil {
		t.Error("Violations does not return an independent copy")
	}
}

func TestVerifyHeapOnLiveRuntime(t *testing.T) {
	rt := newRT(t, 1<<13)
	node := rt.DefineClass("Node", RefField("next"))
	next := node.MustFieldIndex("next")
	th := rt.MainThread()
	g := rt.AddGlobal("head")
	for i := 0; i < 50; i++ {
		n := th.New(node)
		rt.SetRef(n, next, g.Get())
		g.Set(n)
	}
	rt.GC()
	if errs := rt.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("verify failed: %v", errs[0])
	}
}

func TestMainThreadName(t *testing.T) {
	rt := newRT(t, 1<<12)
	if rt.MainThread().Name() != "main" {
		t.Errorf("main thread name = %q", rt.MainThread().Name())
	}
	if th := rt.NewThread("worker"); th.Name() != "worker" {
		t.Errorf("thread name = %q", th.Name())
	}
	if rt.Mode() != Infrastructure {
		t.Error("Mode() wrong")
	}
}

func TestThreadAllocsCounter(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	before := th.Allocs()
	th.New(node)
	th.New(node)
	if got := th.Allocs() - before; got != 2 {
		t.Errorf("Allocs delta = %d, want 2", got)
	}
}
