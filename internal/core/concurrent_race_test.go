package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/vmheap"
)

// TestConcurrentPacerUnderRace runs four buffered mutator threads through
// full background collection cycles while the main goroutine polls Stats
// and Metrics and forces occasional explicit collections. It exists for
// the race detector (make race / the CI -race job): the pacer goroutine's
// background slices, the mutators' assists and hidden-register pins, the
// bump-path spinlocks, the telemetry recorder, and the flush-all buffer
// retirement all interleave here with no script-level synchronization.
func TestConcurrentPacerUnderRace(t *testing.T) {
	const (
		mutators = 4
		iters    = 1200
		locals   = 4
	)
	rt := New(Config{HeapWords: 1 << 14, Mode: Infrastructure,
		ConcurrentGC: true, AllocBuffers: 256, Telemetry: &telemetry.Config{}})
	node := rt.DefineClass("PNode", RefField("a"), RefField("b"))
	aOff := node.MustFieldIndex("a")
	bOff := node.MustFieldIndex("b")

	var wg sync.WaitGroup
	done := make(chan struct{})
	// Create-then-start, as NewThread requires: every Thread is made on the
	// main goroutine before the goroutine that drives it is spawned.
	ths := make([]*Thread, mutators)
	for m := range ths {
		ths[m] = rt.NewThread(fmt.Sprintf("pmut%d", m))
	}
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			th := ths[m]
			fr := th.PushFrame(locals)
			rng := rand.New(rand.NewSource(int64(m)))
			for i := 0; i < iters; i++ {
				switch rng.Intn(6) {
				case 0, 1:
					fr.SetLocal(rng.Intn(locals), th.New(node))
				case 2:
					// Wire through the accessor matching the object's kind:
					// locals hold both PNodes and ref arrays, and a field
					// store into an array would clobber its length word.
					src := fr.Local(rng.Intn(locals))
					dst := fr.Local(rng.Intn(locals))
					if src != Nil {
						if rt.KindOf(src) == int(vmheap.KindRefArray) {
							rt.ArrSetRef(src, 0, dst)
						} else {
							off := aOff
							if rng.Intn(2) == 0 {
								off = bOff
							}
							rt.SetRef(src, off, dst)
						}
					}
				case 3:
					if r := fr.Local(rng.Intn(locals)); r != Nil {
						if rng.Intn(2) == 0 {
							_ = rt.AssertDead(r)
						} else {
							_ = rt.AssertUnshared(r)
						}
						// Usually drop the root so the assertion holds;
						// sometimes keep it rooted to provoke violations
						// reported from pacer-driven cycles.
						if rng.Intn(4) > 0 {
							fr.SetLocal(rng.Intn(locals), Nil)
						}
					}
				case 4:
					// Garbage burst: drives occupancy across the trigger and
					// forces mid-cycle buffer refills (and with them assists).
					for j := 0; j < 4; j++ {
						_ = th.NewDataArray(16)
					}
				case 5:
					fr.SetLocal(rng.Intn(locals), th.NewRefArray(1+rng.Intn(8)))
				}
				// Keep the reachable component bounded so allocation never
				// outruns the fixed heap.
				if i%100 == 99 {
					for s := 0; s < locals; s++ {
						fr.SetLocal(s, Nil)
					}
				}
			}
		}(m)
	}
	go func() { wg.Wait(); close(done) }()

	polls := 0
	for {
		select {
		case <-done:
			if err := rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if errs := rt.VerifyHeap(); len(errs) != 0 {
				t.Fatalf("heap corrupt after concurrent run: %v", errs[0])
			}
			s := rt.Stats()
			if s.Pacer.Triggers == 0 || s.Pacer.Cycles == 0 {
				t.Fatalf("background pacer never collected: %+v", s.Pacer)
			}
			if s.Pacer.MaxCycleGrowthWords > s.Pacer.GrowthCapWords {
				t.Fatalf("cycle growth %d exceeded cap %d",
					s.Pacer.MaxCycleGrowthWords, s.Pacer.GrowthCapWords)
			}
			if s.Heap.BufferAllocs == 0 {
				t.Fatal("no allocation ever went through a buffer")
			}
			if m := rt.Metrics(); m.Triggers != s.Pacer.Triggers {
				t.Fatalf("telemetry triggers %d != pacer triggers %d", m.Triggers, s.Pacer.Triggers)
			}
			return
		default:
			_ = rt.Stats()
			_ = rt.Metrics()
			if polls++; polls%256 == 0 {
				if err := rt.GC(); err != nil {
					t.Fatalf("GC: %v", err)
				}
			}
		}
	}
}
