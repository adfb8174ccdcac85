package core

import "testing"

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
