package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests for the single-mutator lock elision (Runtime.mutators): the elided
// and the locked paths must be observationally the same program, the flip
// between them must be safe to make mid-run, and the contract the elision
// relies on must be checkable.

// soloArm is one configuration of the differential, and whether its script
// is reshaped by oldGenStep. The reshaped script's two long-lived slots
// gather ownership pairs over the whole script, so only its arms compare
// the solo and shared worlds on the ownership pre-phase's improper-ownee
// paths (a repeated warning, an improper ownee its own owner marked first)
// and on phase 1b's report of an ownee no owner reached.
type soloArm struct {
	cfg          Config
	generational bool
}

// soloConfigs is the differential's matrix: plain/generational script ×
// stop-the-world/incremental × direct/buffered. The heap is small enough that
// allocation triggers collections of its own between the forced ones.
func soloConfigs() map[string]soloArm {
	out := make(map[string]soloArm)
	for _, shape := range []string{"marksweep", "generational"} {
		for _, budget := range []int{0, 32} {
			for _, buf := range []int{0, 64} {
				cfg := Config{
					HeapWords: 1 << 10, Mode: Infrastructure,
					IncrementalBudget: budget, AllocBuffers: buf,
				}
				out[fmt.Sprintf("%s/inc%d/buf%d", shape, budget, buf)] = soloArm{cfg, shape == "generational"}
			}
		}
	}
	return out
}

// oldGenStep reshapes the n-th drawn op of a seed's script the way
// oldGenScript reshapes a concurrent-differential script: the first ops
// allocate a node into each old-generation slot, and later allocations and
// clears go to the young slots, so the old objects live the whole script.
func oldGenStep(n int, code, i byte) (byte, byte) {
	if n < oldGenSlots {
		return 0, byte(n)
	}
	if code < 10 {
		switch code % 9 {
		case 0, 1, 2, 4: // allocation or clear
			i = oldGenSlot(i, sweepSlots)
		}
	}
	return code, i
}

// buildSoloWorld builds the script's world on cfg; shared worlds call
// NewThread before anything else, which is all it takes to leave the
// single-mutator regime.
func buildSoloWorld(cfg Config, shared bool) *sweepWorld {
	rt := New(cfg)
	if shared {
		rt.NewThread("unused")
	}
	return newSweepWorld(rt)
}

// soloStep applies one script op, then — the one deliberate difference between
// the regimes — drops the hidden-register pins a shared runtime keeps
// (Runtime.pinsActive). Pins root a thread's last few allocations against
// another goroutine's collection; the script publishes every allocation into
// a frame slot at once, so here they could only retain what the solo world
// frees and turn assert-dead verdicts into root-path false positives.
func (w *sweepWorld) soloStep(code, i, k byte) {
	switch {
	case code == 10: // data store and load through a fresh data array
		arr := w.th.NewDataArray(1 + int(k)%4)
		w.rt.ArrSetData(arr, 0, uint64(k))
		if w.rt.ArrGetData(arr, 0) != uint64(k) {
			panic("data array round trip")
		}
	case code == 11: // a managed string in a nested frame
		f := w.th.PushFrame(1)
		f.SetLocal(0, w.th.NewString(strings.Repeat("x", int(k)%20)))
		if w.rt.StringLen(f.Local(0)) != int(k)%20 {
			panic("string round trip")
		}
		w.th.PopFrame()
	case code == 12 && k < 32: // a full collection mid-script
		if err := w.rt.GC(); err != nil {
			panic(err)
		}
	case code == 12 && k < 64: // open an incremental cycle for the ops that follow to write into
		if err := w.rt.StartGC(); err != nil {
			panic(err)
		}
	default:
		w.apply(code%9, i, k)
	}
	w.th.pins = [threadPinSlots]allocPin{}
}

// TestSoloSharedDifferential runs one seeded mutator script — allocation,
// reference, data and array stores, frames, strings, regions, every
// assertion kind, forced, incremental and allocation-triggered
// collections — on a solo runtime and on one where NewThread was called
// first. Same script, same collection points, so everything must match to
// the address: live sets, violations with their paths, heap and collector
// accounting, and a clean VerifyHeap.
func TestSoloSharedDifferential(t *testing.T) {
	for name, arm := range soloConfigs() {
		cfg := arm.cfg
		t.Run(name, func(t *testing.T) {
			triggered := false
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				solo, shared := buildSoloWorld(cfg, false), buildSoloWorld(cfg, true)
				if !solo.rt.solo() || shared.rt.solo() {
					t.Fatal("worlds are not in the regimes the test compares")
				}
				worlds := []*sweepWorld{solo, shared}
				for round := 0; round < 4; round++ {
					before := solo.rt.Stats().GC.Collections
					for step := 0; step < 1000; step++ {
						code, i, k := byte(rng.Intn(13)), byte(rng.Intn(256)), byte(rng.Intn(256))
						if arm.generational {
							code, i = oldGenStep(round*1000+step, code, i)
						}
						for _, w := range worlds {
							w.soloStep(code, i, k)
						}
						// Occupancy after every op: a collection that ran at a
						// different point, or freed something else, shows here
						// at once rather than after the next forced collection
						// has evened it out.
						if a, b := solo.rt.heap.LiveWords(), shared.rt.heap.LiveWords(); a != b {
							t.Fatalf("seed %d round %d step %d (op %d): %d live words solo, %d shared", seed, round, step, code, a, b)
						}
					}
					if solo.rt.Stats().GC.Collections > before {
						triggered = true
					}
					for _, w := range worlds {
						var err error
						switch {
						case cfg.IncrementalBudget > 0 && round%2 == 0:
							if err = w.rt.StartGC(); err == nil {
								_, err = w.rt.GCStep()
							}
							if err == nil {
								err = w.rt.FinishGC()
							}
						}
						if err == nil {
							err = w.rt.GC()
						}
						if err != nil {
							t.Fatalf("seed %d round %d: collection: %v", seed, round, err)
						}
					}
					label := fmt.Sprintf("seed %d round %d", seed, round)
					if a, b := solo.rt.LiveSet(), shared.rt.LiveSet(); !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: live sets differ (%d vs %d objects)", label, len(a), len(b))
					}
					if a, b := renderViolations(solo.rt), renderViolations(shared.rt); !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: violations differ:\n  solo:   %v\n  shared: %v", label, a, b)
					}
					ss, hs := solo.rt.Stats(), shared.rt.Stats()
					if ss.Heap != hs.Heap {
						t.Fatalf("%s: heap accounting differs:\n  solo:   %+v\n  shared: %+v", label, ss.Heap, hs.Heap)
					}
					// Marked counts are left out: an incremental cycle that the
					// allocation itself triggers finds the new object in the
					// shared world's pin ring and counts it as a root visit.
					if ss.GC.Collections != hs.GC.Collections || ss.GC.FreedWords != hs.GC.FreedWords ||
						ss.GC.FreedObjects != hs.GC.FreedObjects {
						t.Fatalf("%s: collector accounting differs: %d/%d collections, %d/%d freed words, %d/%d freed objects",
							label, ss.GC.Collections, hs.GC.Collections, ss.GC.FreedWords, hs.GC.FreedWords,
							ss.GC.FreedObjects, hs.GC.FreedObjects)
					}
					if ss.Asserts != hs.Asserts {
						t.Fatalf("%s: assertion accounting differs:\n  solo:   %+v\n  shared: %+v", label, ss.Asserts, hs.Asserts)
					}
					if a, b := solo.th.Allocs(), shared.th.Allocs(); a != b {
						t.Fatalf("%s: thread alloc counts differ: %d vs %d", label, a, b)
					}
				}
				for _, w := range worlds {
					if errs := w.rt.VerifyHeap(); len(errs) > 0 {
						t.Fatalf("seed %d: heap corrupt (solo=%v): %v", seed, w.rt.solo(), errs[0])
					}
				}
			}
			if !triggered {
				t.Error("no allocation-triggered collection ran: the heap is too large for the script")
			}
		})
	}
}

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
			f.SetLocal(0, th.New(node))
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
		fr.SetLocal(0, th.New(node))

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

// TestPopFrameClearsPinsOnlyWhenActive: the pin ring of a solo runtime is
// never written, so PopFrame leaves it alone; a ring filled after the flip
// is still cleared when the thread's last frame goes.
func TestPopFrameClearsPinsOnlyWhenActive(t *testing.T) {
	rt := newRT(t, 1<<12)
	node := rt.DefineClass("PNode", RefField("next"))
	th := rt.MainThread()
	filled := func() (n int) {
		for _, p := range th.pins {
			if p.ref != Nil {
				n++
			}
		}
		return
	}

	th.PushFrame(1)
	th.New(node)
	if filled() != 0 {
		t.Fatal("a solo runtime noted an allocation in the pin ring")
	}
	th.PopFrame()

	rt.NewThread("second")
	th.PushFrame(1)
	th.PushFrame(1)
	for i := 0; i < threadPinSlots+1; i++ {
		th.New(node)
	}
	if filled() != threadPinSlots {
		t.Fatalf("%d pins after the flip, want %d", filled(), threadPinSlots)
	}
	th.PopFrame()
	if filled() != threadPinSlots {
		t.Fatal("pins dropped while a frame remains")
	}
	th.PopFrame()
	if filled() != 0 {
		t.Fatalf("%d pins survive the thread's last frame", filled())
	}
}
