package core

import (
	"slices"
	"testing"

	"repro/internal/report"
	"repro/internal/vmheap"
)

// The root set is the program's references — globals and frame slots — on
// every runtime, whatever its thread count (DESIGN.md §11).

// TestVerdictsIgnoreThreadCount: one program, run on a one-thread runtime
// and on one where NewThread made a thread that never runs. x is stored in a
// global and asserted unshared; y is stored nowhere and asserted dead; their
// class is limited to one instance. Both runtimes report no violation.
func TestVerdictsIgnoreThreadCount(t *testing.T) {
	for _, idle := range []bool{false, true} {
		rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure})
		if idle {
			rt.NewThread("second")
		}
		c := rt.DefineClass("Obj", RefField("next"))
		th := rt.MainThread()
		f := th.PushFrame(2)
		x := f.New(0, c)
		rt.AddGlobal("x").Set(x)
		f.SetLocal(0, Nil)
		if err := rt.AssertUnshared(x); err != nil {
			t.Fatal(err)
		}
		f.New(1, c)
		if err := f.AssertDead(1); err != nil {
			t.Fatal(err)
		}
		if err := rt.AssertInstances(c, 1); err != nil {
			t.Fatal(err)
		}
		if err := rt.GC(); err != nil {
			t.Fatal(err)
		}
		for _, v := range rt.Violations() {
			t.Errorf("idle thread %v: %v", idle, v)
		}
	}
}

// TestIdleThreadAllocationDies: a second thread allocates an object into a
// frame slot and idles with the frame still pushed, while the main thread
// collects and allocates. The second thread then asserts the object dead and
// drops its slot; the collections after that report nothing and free it.
func TestIdleThreadAllocationDies(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure})
	c := rt.DefineClass("Obj", RefField("next"))
	main, second := rt.MainThread(), rt.NewThread("second")
	f := second.PushFrame(1)
	f.New(0, c)
	gc := func() {
		if err := rt.GC(); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		gc()
	}
	for range 100 {
		main.New(c)
	}
	if err := f.AssertDead(0); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		gc()
	}
	for _, v := range rt.Violations() {
		t.Errorf("the idle thread's object: %v", v)
	}
	if n := rt.AllocatedInstanceCount(c); n != 0 {
		t.Errorf("%d instances allocated after the collections, want 0", n)
	}
}

// TestStaleFrame: a Frame is a handle on one push. In every locking regime,
// a handle used after its PopFrame panics, whichever method is called; so
// does one used after another frame was pushed at its depth (which would
// otherwise alias the new frame's slots); a re-pushed depth starts all-Nil;
// and an object held only by a popped frame is freed by the next collection.
func TestStaleFrame(t *testing.T) {
	eachRegime(t, func(t *testing.T, rt *Runtime) {
		c := rt.DefineClass("Obj", RefField("next"))
		th := rt.MainThread()
		uses := map[string]func(f Frame){
			"Local":        func(f Frame) { f.Local(0) },
			"SetLocal":     func(f Frame) { f.SetLocal(0, Nil) },
			"New":          func(f Frame) { f.New(0, c) },
			"NewRefArray":  func(f Frame) { f.NewRefArray(0, 2) },
			"NewDataArray": func(f Frame) { f.NewDataArray(0, 2) },
			"NewString":    func(f Frame) { f.NewString(0, "s") },
			"AssertDead":   func(f Frame) { f.AssertDead(0) },
		}
		mustPanicStale := func(what string, use func(Frame), f Frame) {
			t.Helper()
			defer func() {
				if got := recover(); got != errStaleFrame {
					t.Errorf("%s: panic %v, want %q", what, got, errStaleFrame)
				}
			}()
			use(f)
		}

		for name, use := range uses {
			f := th.PushFrame(1)
			th.PopFrame()
			mustPanicStale(name+" after pop", use, f)
			assertUnlocked(t, rt)

			f = th.PushFrame(1)
			th.PopFrame()
			g := th.PushFrame(1)
			g.New(0, c)
			mustPanicStale(name+" after a push at its depth", use, f)
			assertUnlocked(t, rt)
			if g.Local(0) == Nil {
				t.Errorf("%s: the stale use reached the live frame's slot", name)
			}
			th.PopFrame()
		}

		outer := th.PushFrame(1)
		f := th.PushFrame(3)
		for i := range 3 {
			f.New(i, c)
		}
		th.PopFrame()
		g := th.PushFrame(2)
		h := th.PushFrame(2) // reuses the popped frame's third slot
		for i := range 2 {
			if g.Local(i) != Nil || h.Local(i) != Nil {
				t.Errorf("slot %d of a re-pushed depth is not Nil", i)
			}
		}
		th.PopFrame()
		th.PopFrame()
		if outer.Local(0) != Nil {
			t.Error("pushes above a frame changed its slot")
		}
		th.PopFrame()

		th.PushFrame(2).New(1, c)
		th.PopFrame() // its slots stay in the stack's storage, above top
		if err := rt.GC(); err != nil {
			t.Fatal(err)
		}
		if n := rt.AllocatedInstanceCount(c); n != 0 {
			t.Errorf("%d objects held only by popped frames survived a collection", n)
		}
	})
}

// TestFrameLocals: fresh slots are Nil, SetLocal and Local round-trip, and a
// slot index outside the frame panics instead of reaching a neighbour frame.
func TestFrameLocals(t *testing.T) {
	rt := newRT(t, 1<<12)
	c := rt.DefineClass("Obj")
	th := rt.MainThread()
	below := th.PushFrame(1)
	f := th.PushFrame(4)
	above := th.PushFrame(1)
	r := th.New(c)
	f.SetLocal(2, r)
	if f.Local(2) != r || f.Local(0) != Nil {
		t.Errorf("slots = %v, %v; want %v, Nil", f.Local(2), f.Local(0), r)
	}
	for _, i := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("slot %d of a 4-slot frame did not panic", i)
				}
			}()
			f.SetLocal(i, r)
		}()
	}
	if below.Local(0) != Nil || above.Local(0) != Nil {
		t.Error("an out-of-range slot reached a neighbour frame")
	}
}

// TestFrameStack: frames pop innermost first, the outer frame stays usable
// after the inner one pops, and a pop with no frame pushed panics.
func TestFrameStack(t *testing.T) {
	rt := newRT(t, 1<<12)
	c := rt.DefineClass("Obj")
	th := rt.MainThread()
	f1 := th.PushFrame(1)
	f1.New(0, c)
	th.PushFrame(1).New(0, c)
	th.PopFrame()
	if f1.Local(0) == Nil {
		t.Error("outer frame lost its slot when the inner one popped")
	}
	th.PopFrame()
	defer func() {
		if recover() == nil {
			t.Error("PopFrame on an empty stack did not panic")
		}
	}()
	th.PopFrame()
}

// TestRootSpans: the root set is the globals' span first, then one span per
// thread; a thread with no frame contributes an empty span.
func TestRootSpans(t *testing.T) {
	rt := newRT(t, 1<<12)
	c := rt.DefineClass("Obj")
	rt.NewThread("idle")
	f := rt.MainThread().PushFrame(2)
	r := f.New(1, c)
	rt.AddGlobal("g").Set(r)
	rt.AddGlobal("empty")
	want := [][]Ref{{r, Nil}, {Nil, r}, {}}
	rt.mu.Lock()
	got := rt.rootSpans()
	rt.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("%d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("span %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestThreadRootSpans: each thread's span is the slots of all its pushed
// frames, bottom frame first, and the threads come in creation order under
// the names they were given.
func TestThreadRootSpans(t *testing.T) {
	rt := newRT(t, 1<<12)
	c := rt.DefineClass("Obj")
	a := rt.MainThread()
	b := rt.NewThread("b")
	ra := a.PushFrame(1).New(0, c)
	rb := a.PushFrame(2).New(1, c)
	rc := b.PushFrame(1).New(0, c)
	want := [][]Ref{{}, {ra, Nil, rb}, {rc}}
	rt.mu.Lock()
	got := rt.rootSpans()
	rt.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("%d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("span %d = %v, want %v", i, got[i], want[i])
		}
	}
	if b.Name() != "b" || a == b {
		t.Errorf("threads %q and %q are not two named threads", a.Name(), b.Name())
	}
}

// TestRootScanSkipsNil: a collection scans the non-Nil frame slots only.
func TestRootScanSkipsNil(t *testing.T) {
	rt := newRT(t, 1<<12)
	c := rt.DefineClass("Leaf", DataField("v"))
	f := rt.MainThread().PushFrame(3)
	f.New(0, c)
	f.New(2, c)
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().GC.Trace.RefsScanned; got != 2 {
		t.Errorf("RefsScanned = %d, want 2 (the two set frame slots)", got)
	}
}

// TestGlobalRootScan: a collection scans the non-Nil globals only, and a
// Force verdict on an object a global holds nulls that global in place.
func TestGlobalRootScan(t *testing.T) {
	rt := New(Config{
		HeapWords: 1 << 12,
		Mode:      Infrastructure,
		Handler: report.HandlerFunc(func(*report.Violation) report.Action {
			return report.Force
		}),
	})
	c := rt.DefineClass("Leaf", DataField("v"))
	rt.AddGlobal("empty")
	g := rt.AddGlobal("set")
	g.Set(rt.MainThread().New(c))
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().GC.Trace.RefsScanned; got != 1 {
		t.Errorf("RefsScanned = %d, want 1 (the set global)", got)
	}
	if err := rt.AssertDead(g.Get()); err != nil {
		t.Fatal(err)
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if g.Get() != Nil || rt.AllocatedInstanceCount(c) != 0 {
		t.Errorf("after Force: global %v, %d instances; want Nil, 0", g.Get(), rt.AllocatedInstanceCount(c))
	}
}

// TestForceNullsRootSlots: a Force verdict on an object a root holds nulls
// that root slot in place, a frame slot and a global alike, and the object
// is swept.
func TestForceNullsRootSlots(t *testing.T) {
	rt := New(Config{
		HeapWords: 1 << 12,
		Mode:      Infrastructure,
		Handler: report.HandlerFunc(func(*report.Violation) report.Action {
			return report.Force
		}),
	})
	c := rt.DefineClass("Obj")
	th := rt.MainThread()
	f := th.PushFrame(2)
	kept := f.New(0, c)
	victim := f.New(1, c)
	g := rt.AddGlobal("victim")
	g.Set(victim)
	if err := rt.AssertDead(victim); err != nil {
		t.Fatal(err)
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if f.Local(1) != Nil || g.Get() != Nil {
		t.Errorf("root slots after Force: frame %v, global %v; want Nil", f.Local(1), g.Get())
	}
	if f.Local(0) != kept || rt.AllocatedInstanceCount(c) != 1 {
		t.Error("Force touched a root it was not asked about, or the victim survived")
	}
}

// TestGlobalRoundtrip: a fresh global is Nil, Set and Get round-trip, and
// EachGlobal reports every global in creation order.
func TestGlobalRoundtrip(t *testing.T) {
	rt := newRT(t, 1<<12)
	c := rt.DefineClass("Obj")
	a, b := rt.AddGlobal("a"), rt.AddGlobal("b")
	if a.Get() != Nil {
		t.Error("fresh global not Nil")
	}
	r := rt.MainThread().New(c)
	b.Set(r)
	if b.Get() != r || a.Get() != Nil {
		t.Error("Set/Get round trip failed")
	}
	var names []string
	rt.EachGlobal(func(name string, got Ref) {
		names = append(names, name)
		if name == "b" && got != r {
			t.Errorf("EachGlobal reports b = %v, want %v", got, r)
		}
	})
	if !slices.Equal(names, []string{"a", "b"}) {
		t.Errorf("EachGlobal names = %v", names)
	}
}

// TestAddGlobalDuplicatePanics: a second global under a taken name panics.
func TestAddGlobalDuplicatePanics(t *testing.T) {
	rt := newRT(t, 1<<12)
	rt.AddGlobal("x")
	defer func() {
		if recover() == nil {
			t.Error("a duplicate global did not panic")
		}
	}()
	rt.AddGlobal("x")
}

// TestRegionLifecycle: a fresh thread has no open region; StartRegion opens
// one, the thread's allocations are queued in it in order, and AssertAllDead
// closes it and asserts them dead.
func TestRegionLifecycle(t *testing.T) {
	rt := newRT(t, 1<<12)
	c := rt.DefineClass("Obj")
	th := rt.MainThread()
	if len(th.regions) != 0 {
		t.Fatalf("a fresh thread has %d open regions", len(th.regions))
	}
	f := th.PushFrame(2)
	if err := th.StartRegion(); err != nil {
		t.Fatal(err)
	}
	r0, r1 := f.New(0, c), f.New(1, c)
	if len(th.regions) != 1 || !slices.Equal(th.regions[0], []Ref{r0, r1}) {
		t.Fatalf("open regions = %v, want one queue [%v %v]", th.regions, r0, r1)
	}
	if err := th.AssertAllDead(); err != nil {
		t.Fatal(err)
	}
	if len(th.regions) != 0 {
		t.Errorf("%d regions open after AssertAllDead", len(th.regions))
	}
	for _, r := range []Ref{r0, r1} {
		if rt.HeaderFlags(r)&vmheap.FlagDead == 0 {
			t.Errorf("%v is not asserted dead", r)
		}
	}
}

// TestNestedRegions: the innermost open region receives the allocations, and
// each AssertAllDead closes one region and asserts exactly its objects dead.
func TestNestedRegions(t *testing.T) {
	rt := newRT(t, 1<<12)
	c := rt.DefineClass("Obj")
	th := rt.MainThread()
	f := th.PushFrame(2)
	if err := th.StartRegion(); err != nil {
		t.Fatal(err)
	}
	outer := f.New(0, c)
	if err := th.StartRegion(); err != nil {
		t.Fatal(err)
	}
	inner := f.New(1, c)
	dead := func(r Ref) bool { return rt.HeaderFlags(r)&vmheap.FlagDead != 0 }
	if err := th.AssertAllDead(); err != nil {
		t.Fatal(err)
	}
	if !dead(inner) || dead(outer) {
		t.Errorf("after the inner bracket: inner dead %v, outer dead %v; want true, false", dead(inner), dead(outer))
	}
	if err := th.AssertAllDead(); err != nil {
		t.Fatal(err)
	}
	if !dead(outer) {
		t.Error("the outer bracket's object is not asserted dead")
	}
	if len(th.regions) != 0 {
		t.Errorf("%d regions open after both brackets closed", len(th.regions))
	}
}

// TestRegionQueuePurge: a collection drops the objects it frees from every
// thread's open region queues and keeps the survivors, in order.
func TestRegionQueuePurge(t *testing.T) {
	rt := newRT(t, 1<<12)
	c := rt.DefineClass("Obj")
	th := rt.MainThread()
	f := th.PushFrame(2)
	if err := th.StartRegion(); err != nil {
		t.Fatal(err)
	}
	kept := f.New(0, c)
	th.New(c) // garbage
	last := f.New(1, c)
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if got := th.regions[0]; !slices.Equal(got, []Ref{kept, last}) {
		t.Errorf("region queue after the collection = %v, want %v", got, []Ref{kept, last})
	}
}
