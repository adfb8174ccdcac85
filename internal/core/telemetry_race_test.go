package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// TestStatsMetricsRaceUnderIncrementalBuffered exercises Runtime.Stats and
// Runtime.Metrics from a dedicated observer goroutine while mutator threads
// allocate through bump buffers and the main goroutine drives incremental
// collection cycles. It gives the race detector the full observability
// surface to chew on — the buffer folding in Stats takes each thread's
// buffer spinlock outside rt.mu, and Metrics takes only the recorder's leaf
// mutex — and asserts two invariants no interleaving may break:
//
//  1. Monotonicity: lifetime counters (allocations, collections, telemetry
//     events, cycles, pauses, carves, retires) never decrease between
//     consecutive snapshots.
//  2. Exactness: the buffer-folded allocation totals observed while buffers
//     are still active equal the ground truth after every buffer is
//     force-retired — folding is an account of the same allocations, not an
//     estimate.
func TestStatsMetricsRaceUnderIncrementalBuffered(t *testing.T) {
	const (
		mutators = 3
		iters    = 1200
		locals   = 4
	)
	rt := New(Config{
		HeapWords:         1 << 14,
		Mode:              Infrastructure,
		IncrementalBudget: 64,
		AllocBuffers:      256,
		Telemetry:         &telemetry.Config{},
	})
	node := rt.DefineClass("RNode", RefField("a"), RefField("b"))
	aOff := node.MustFieldIndex("a")

	var wg sync.WaitGroup
	done := make(chan struct{})
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
				switch rng.Intn(3) {
				case 0, 1:
					fr.SetLocal(rng.Intn(locals), th.New(node))
				case 2:
					src := fr.Local(rng.Intn(locals))
					if src != Nil {
						rt.SetRef(src, aOff, fr.Local(rng.Intn(locals)))
					}
				}
				if i%100 == 99 {
					for s := 0; s < locals; s++ {
						fr.SetLocal(s, Nil)
					}
				}
			}
		}(m)
	}

	// Observer: snapshot Stats and Metrics concurrently with everything
	// else and check monotonicity between consecutive snapshots.
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		var prevSt Snapshot
		var prevM telemetry.Summary
		for {
			st := rt.Stats()
			m := rt.Metrics()
			if st.Heap.TotalAllocs < prevSt.Heap.TotalAllocs {
				t.Errorf("TotalAllocs went backwards: %d -> %d", prevSt.Heap.TotalAllocs, st.Heap.TotalAllocs)
			}
			if st.Heap.TotalWords < prevSt.Heap.TotalWords {
				t.Errorf("TotalWords went backwards: %d -> %d", prevSt.Heap.TotalWords, st.Heap.TotalWords)
			}
			if st.GC.Collections < prevSt.GC.Collections {
				t.Errorf("Collections went backwards: %d -> %d", prevSt.GC.Collections, st.GC.Collections)
			}
			for name, pair := range map[string][2]uint64{
				"Events":      {prevM.Events, m.Events},
				"Cycles":      {prevM.Cycles, m.Cycles},
				"Pause.Count": {prevM.Pause.Count, m.Pause.Count},
				"Carves":      {prevM.Carves, m.Carves},
				"Retires":     {prevM.Retires, m.Retires},
			} {
				if pair[1] < pair[0] {
					t.Errorf("telemetry %s went backwards: %d -> %d", name, pair[0], pair[1])
				}
			}
			for kind, n := range prevM.Violations {
				if m.Violations[kind] < n {
					t.Errorf("telemetry %s violations went backwards: %d -> %d", kind, n, m.Violations[kind])
				}
			}
			prevSt, prevM = st, m
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	go func() { wg.Wait(); close(done) }()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
			if err := rt.StartGC(); err != nil {
				t.Fatalf("StartGC: %v", err)
			}
			if _, err := rt.GCStep(); err != nil {
				t.Fatalf("GCStep: %v", err)
			}
		}
	}
	<-obsDone

	// Folded totals with buffers still (possibly) active...
	folded := rt.Stats()
	// ...must match the ground truth after forced retirement. FinishGC
	// retires every buffer and completes any in-flight cycle; lifetime
	// allocation counters are untouched by collection itself.
	if err := rt.FinishGC(); err != nil {
		t.Fatalf("FinishGC: %v", err)
	}
	ground := rt.Stats()
	if folded.Heap.TotalAllocs != ground.Heap.TotalAllocs {
		t.Errorf("folded TotalAllocs %d != ground truth %d", folded.Heap.TotalAllocs, ground.Heap.TotalAllocs)
	}
	if folded.Heap.TotalWords != ground.Heap.TotalWords {
		t.Errorf("folded TotalWords %d != ground truth %d", folded.Heap.TotalWords, ground.Heap.TotalWords)
	}
	if folded.Heap.BufferAllocs != ground.Heap.BufferAllocs {
		t.Errorf("folded BufferAllocs %d != ground truth %d", folded.Heap.BufferAllocs, ground.Heap.BufferAllocs)
	}
	if ground.Heap.BufferAllocs == 0 {
		t.Error("no allocation ever went through a buffer")
	}

	m := rt.Metrics()
	if m.Carves != ground.Heap.BufferCarves {
		t.Errorf("telemetry Carves %d != heap BufferCarves %d", m.Carves, ground.Heap.BufferCarves)
	}
	if m.Retires != m.Carves {
		t.Errorf("Retires %d != Carves %d after forced retirement", m.Retires, m.Carves)
	}
	if m.UsedWords+m.TailWords != m.CarveWords {
		t.Errorf("used %d + tail %d != carved %d", m.UsedWords, m.TailWords, m.CarveWords)
	}
	if m.Cycles == 0 {
		t.Error("no incremental cycle ran during the chase")
	}
	if errs := rt.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("heap corrupt after concurrent run: %v", errs[0])
	}
}
