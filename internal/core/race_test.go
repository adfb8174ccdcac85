package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentMutatorsUnderGC runs four mutator threads on their own
// goroutines — allocating, storing, asserting, and opening region brackets —
// while the main goroutine forces collections. Its purpose is to give the
// race detector (make race / the CI -race job) real concurrency to chew on:
// multi-goroutine use of threads.Set and roots.Table through the runtime
// lock, with violations reported while mutators run.
func TestConcurrentMutatorsUnderGC(t *testing.T) { concurrentMutatorsUnderGC(t, 0) }

// TestConcurrentMutatorsUnderGCBuffered is the same chase with per-thread
// allocation buffers enabled: four threads carving, bumping, and retiring
// buffers (with tail coalescing) under the runtime lock while collections
// force flush-all retirement. The final VerifyHeap checks the multi-buffer
// retirement ordering leaves a fully coalesced, parseable heap.
func TestConcurrentMutatorsUnderGCBuffered(t *testing.T) { concurrentMutatorsUnderGC(t, 256) }

func concurrentMutatorsUnderGC(t *testing.T, bufWords int) {
	const (
		mutators = 4
		iters    = 1500
		locals   = 4
	)
	rt := New(Config{HeapWords: 1 << 14, Mode: Infrastructure, AllocBuffers: bufWords})
	node := rt.DefineClass("RNode", RefField("a"), RefField("b"))
	aOff := node.MustFieldIndex("a")
	bOff := node.MustFieldIndex("b")

	var wg sync.WaitGroup
	done := make(chan struct{})
	// Create-then-start, as NewThread requires: every Thread is made on the
	// main goroutine before the goroutine that drives it is spawned.
	ths := make([]*Thread, mutators)
	for m := range ths {
		ths[m] = rt.NewThread(fmt.Sprintf("mut%d", m))
	}
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			th := ths[m]
			fr := th.PushFrame(locals)
			rng := rand.New(rand.NewSource(int64(m)))
			for i := 0; i < iters; i++ {
				switch rng.Intn(5) {
				case 0, 1:
					fr.New(rng.Intn(locals), node)
				case 2:
					src := fr.Local(rng.Intn(locals))
					dst := fr.Local(rng.Intn(locals))
					if src != Nil {
						off := aOff
						if rng.Intn(2) == 0 {
							off = bOff
						}
						rt.SetRef(src, off, dst)
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
						// under concurrency.
						if rng.Intn(4) > 0 {
							fr.SetLocal(rng.Intn(locals), Nil)
						}
					}
				case 4:
					if err := th.StartRegion(); err == nil {
						for j := 0; j < 3; j++ {
							if j == 0 && rng.Intn(8) == 0 {
								fr.New(rng.Intn(locals), node)
							} else {
								th.New(node)
							}
						}
						if err := th.AssertAllDead(); err != nil {
							t.Errorf("AssertAllDead: %v", err)
							return
						}
					}
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

	for {
		select {
		case <-done:
			if errs := rt.VerifyHeap(); len(errs) != 0 {
				t.Fatalf("heap corrupt after concurrent run: %v", errs[0])
			}
			if bufWords > 0 && rt.Stats().Heap.BufferAllocs == 0 {
				t.Fatal("no allocation ever went through a buffer")
			}
			return
		default:
			if err := rt.GC(); err != nil {
				t.Fatalf("GC: %v", err)
			}
			if err := rt.GC(); err != nil {
				t.Fatalf("GC: %v", err)
			}
		}
	}
}
