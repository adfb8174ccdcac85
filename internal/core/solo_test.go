package core

import (
	"sync"
	"testing"
	"time"
)

// Tests for the single-mutator lock elision (Runtime.mutators): the flip
// between the regimes must be safe to make mid-run, and the contract the
// elision relies on must be checkable. That the elided and the locked paths
// are one program is TestSoloSharedDifferential (differential_test.go).

// TestSoloFlipMidScript makes the flip itself: a mutator runs solo, calls
// NewThread part-way, hands the Thread to a second goroutine, and both keep
// mutating, reading what the other wrote before and after the flip through a
// shared global, while collections run from either side. Under -race this is
// the check that nothing the solo phase wrote unlocked is touched unlocked
// afterwards. buffered exercises the bump path's own spinlock elision.
func TestSoloFlipMidScript(t *testing.T) {
	for _, cfg := range []Config{
		{HeapWords: 1 << 12, Mode: Infrastructure},
		{HeapWords: 1 << 12, Mode: Infrastructure, AllocBuffers: 64},
		{HeapWords: 1 << 12, Mode: Infrastructure, IncrementalBudget: 32},
	} {
		rt := New(cfg)
		node := rt.DefineClass("FlipNode", RefField("next"), DataField("v"))
		next, v := node.MustFieldIndex("next"), node.MustFieldIndex("v")
		head := rt.AddGlobal("head")
		main := rt.MainThread()

		// push prepends a node carrying val to the global list.
		push := func(th *Thread, val int64) {
			f := th.PushFrame(1)
			f.New(0, node)
			rt.SetInt(f.Local(0), v, val)
			rt.SetRef(f.Local(0), next, head.Get())
			head.Set(f.Local(0))
			th.PopFrame()
		}
		sum := func() (n int, total int64) {
			for r := head.Get(); r != Nil; r = rt.GetRef(r, next) {
				n++
				total += rt.GetInt(r, v)
			}
			return
		}

		for i := 0; i < 200; i++ { // solo: no lock anywhere on these paths
			push(main, 1)
			main.NewString("garbage")
		}
		if !rt.solo() {
			t.Fatal("runtime left the solo regime before NewThread")
		}
		second := rt.NewThread("second")
		if rt.solo() {
			t.Fatal("NewThread did not flip the regime")
		}

		// The list is shared, so the two mutators serialize their
		// read-modify-write of it themselves, as a program would.
		var listMu sync.Mutex
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				listMu.Lock()
				push(second, 100)
				listMu.Unlock()
				second.NewString("garbage")
				if i%50 == 0 {
					if err := rt.GC(); err != nil {
						t.Error(err)
					}
				}
			}
		}()
		for i := 0; i < 200; i++ {
			listMu.Lock()
			push(main, 1)
			listMu.Unlock()
			main.NewString("garbage")
			if i%70 == 0 {
				if err := rt.GC(); err != nil {
					t.Error(err)
				}
			}
		}
		wg.Wait()

		if err := rt.GC(); err != nil {
			t.Fatal(err)
		}
		if n, total := sum(); n != 600 || total != 400+200*100 {
			t.Errorf("%+v: list has %d nodes summing to %d, want 600 and %d", cfg, n, total, 400+200*100)
		}
		if got := rt.AllocatedInstanceCount(node); got != 600 {
			t.Errorf("%+v: %d nodes allocated after a full collection, want 600", cfg, got)
		}
		if errs := rt.VerifyHeap(); len(errs) > 0 {
			t.Errorf("%+v: heap corrupt: %v", cfg, errs[0])
		}
	}
}

// eachRegime runs f on a fresh runtime in each locking regime.
func eachRegime(t *testing.T, f func(t *testing.T, rt *Runtime)) {
	t.Run("solo", func(t *testing.T) { f(t, newRT(t, 1<<12)) })
	t.Run("checked", func(t *testing.T) {
		SetDebugChecks(true)
		defer SetDebugChecks(false)
		f(t, newRT(t, 1<<12))
	})
	t.Run("shared", func(t *testing.T) {
		rt := newRT(t, 1<<12)
		rt.NewThread("second")
		f(t, rt)
	})
	t.Run("shared-incremental", func(t *testing.T) {
		rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure, IncrementalBudget: 32})
		rt.NewThread("second")
		f(t, rt)
	})
}

// assertUnlocked fails if a panicking accessor left rt.mu held.
func assertUnlocked(t *testing.T, rt *Runtime) {
	t.Helper()
	if !rt.mu.TryLock() {
		t.Fatal("rt.mu is still held")
	}
	rt.mu.Unlock()
}

// TestSoloContract: with SetDebugChecks on, a second goroutine inside a
// single-mutator runtime is caught by the elided sites; after NewThread the
// same program is legal.
func TestSoloContract(t *testing.T) {
	SetDebugChecks(true)
	defer SetDebugChecks(false)

	// run mutates on this goroutine while another calls Stats, and returns
	// the mutator's panic value, or nil if none came within the deadline.
	run := func(rt *Runtime, deadline time.Duration) (caught any) {
		node := rt.DefineClass("CNode", RefField("next"), DataField("v"))
		next := node.MustFieldIndex("next")
		th := rt.MainThread()
		fr := th.PushFrame(1)
		fr.New(0, node)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rt.Stats()
				}
			}
		}()
		defer wg.Wait()
		defer close(stop)
		defer func() { caught = recover() }()
		for end := time.Now().Add(deadline); time.Now().Before(end); {
			for i := 0; i < 1000; i++ {
				rt.SetRef(fr.Local(0), next, fr.Local(0))
				benchSink = rt.GetRef(fr.Local(0), next)
				th.New(node)
			}
		}
		return nil
	}

	rt := newRT(t, 1<<12)
	if got := rt.mutators.Load(); got != oneMutatorChecked {
		t.Fatalf("runtime built under SetDebugChecks is in regime %d, want checked", got)
	}
	if caught := run(rt, 20*time.Second); caught != errSoloContract {
		t.Fatalf("second goroutine in a solo runtime: mutator panicked with %v, want %q", caught, errSoloContract)
	}
	assertUnlocked(t, rt)

	rt = newRT(t, 1<<12)
	rt.NewThread("declared")
	if caught := run(rt, 100*time.Millisecond); caught != nil {
		t.Fatalf("after NewThread the same program panicked: %v", caught)
	}
}
