package core

import "testing"

func TestProbeReachable(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node", RefField("next"))
	next := node.MustFieldIndex("next")
	th := rt.MainThread()

	f := th.PushFrame(1)
	a := f.New(0, node)
	rt.AddGlobal("g").Set(a)
	b := f.New(0, node)
	rt.SetRef(a, next, b)
	th.PopFrame()
	c := th.New(node) // unrooted

	ok, path := rt.ProbeReachable(b)
	if !ok {
		t.Fatal("b not reachable")
	}
	if len(path) != 2 || path[0].Ref != a || path[1].Ref != b {
		t.Errorf("path = %+v", path)
	}
	if path[0].Class != "Node" {
		t.Errorf("path class = %q", path[0].Class)
	}
	if ok, _ := rt.ProbeReachable(c); ok {
		t.Error("unrooted object reported reachable")
	}
	if ok, _ := rt.ProbeReachable(Nil); ok {
		t.Error("Nil reported reachable")
	}
}

func TestProbeWillBeReclaimed(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	rooted := th.New(node)
	rt.AddGlobal("g").Set(rooted)
	loose := th.New(node)

	if rt.ProbeWillBeReclaimed(rooted) {
		t.Error("rooted object predicted reclaimed")
	}
	if !rt.ProbeWillBeReclaimed(loose) {
		t.Error("loose object predicted to survive")
	}
}

func TestProbeLeavesAssertionStateIntact(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	obj := th.New(node)
	rt.AddGlobal("g").Set(obj)

	// A prior assert-dead must survive the probe's temporary use of the
	// dead bit...
	rt.AssertDead(obj)
	if ok, _ := rt.ProbeReachable(obj); !ok {
		t.Fatal("probe lost the object")
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if len(rt.Violations()) != 1 {
		t.Error("assert-dead state lost by probe")
	}

	// ...and probing an unasserted object must not create an assertion.
	rt2 := newRT(t, 1<<12)
	node2 := rt2.DefineClass("Node")
	obj2 := rt2.MainThread().New(node2)
	rt2.AddGlobal("g").Set(obj2)
	rt2.ProbeReachable(obj2)
	rt2.GC()
	if n := len(rt2.Violations()); n != 0 {
		t.Errorf("probe created %d phantom violations", n)
	}
}

func TestProbeDoesNotPolluteInstanceCounts(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	obj := th.New(node)
	rt.AddGlobal("g").Set(obj)
	rt.AssertInstances(node, 1) // exactly one live: no violation expected

	rt.ProbeReachable(obj) // counts during the probe trace must not leak
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Violations()); n != 0 {
		t.Errorf("probe doubled instance counts: %d violations", n)
	}
}

func TestProbeInstanceCount(t *testing.T) {
	rt := newRT(t, 1<<13)
	node := rt.DefineClass("Node")
	other := rt.DefineClass("Other")
	th := rt.MainThread()
	arr := th.NewRefArray(5)
	rt.AddGlobal("g").Set(arr)
	for i := 0; i < 3; i++ {
		rt.ArrSetRef(arr, i, th.New(node))
	}
	rt.ArrSetRef(arr, 3, th.New(other))
	th.New(node) // unreachable: not counted

	if got := rt.ProbeInstanceCount(node); got != 3 {
		t.Errorf("ProbeInstanceCount(node) = %d, want 3", got)
	}
	if got := rt.ProbeInstanceCount(other); got != 1 {
		t.Errorf("ProbeInstanceCount(other) = %d, want 1", got)
	}
	// Probes leave no marks behind: a GC afterwards behaves normally.
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().Heap.LiveObjects; got != 5 {
		t.Errorf("LiveObjects after probe+GC = %d, want 5", got)
	}
}
