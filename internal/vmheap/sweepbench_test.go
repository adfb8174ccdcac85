package vmheap

import (
	"math/rand"
	"testing"
)

// benchHeapWords sizes the benchmark arena large enough that the parse-range
// table reaches its full granularity (maxSegmentWords per range).
const benchHeapWords = 1 << 22

// fillBenchHeap tops h up with a fragmented object population (allocating
// into whatever free chunks exist) and then marks every other live object,
// leaving alternating garbage for the sweep to reclaim. Called before every
// timed sweep so each iteration does the same steady-state work — without
// the refill, each sweep would halve the population and later iterations
// would time a near-empty heap.
func fillBenchHeap(b *testing.B, h *Heap, rng *rand.Rand) {
	b.Helper()
	for {
		if _, err := h.Alloc(KindScalar, 1, uint32(rng.Intn(16))); err != nil {
			break
		}
		if h.FreeWords() < uint64(benchHeapWords/8) {
			break
		}
	}
	i := 0
	h.Iterate(func(r Ref, _ uint64) {
		if i%2 == 0 {
			h.SetFlags(r, FlagMark)
		}
		i++
	})
}

func benchmarkSweep(b *testing.B, lazy bool) {
	h := New(benchHeapWords)
	h.SetLazySweep(lazy)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillBenchHeap(b, h, rng)
		b.StartTimer()
		h.Sweep(SweepOptions{})
		h.CompleteSweep()
	}
}

func BenchmarkSweepEager(b *testing.B) { benchmarkSweep(b, false) }

// BenchmarkSweepLazyCensus measures only the collection-pause portion of a
// lazy sweep (the header census); reclamation is then paid off-timer. This is
// the pause the mode exists to shrink.
func BenchmarkSweepLazyCensus(b *testing.B) {
	h := New(benchHeapWords)
	h.SetLazySweep(true)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillBenchHeap(b, h, rng)
		b.StartTimer()
		h.Sweep(SweepOptions{})
		b.StopTimer()
		h.CompleteSweep()
		b.StartTimer()
	}
}

// BenchmarkSweepLazyArm is BenchmarkSweepLazyCensus with exact marked totals
// supplied (as the serial collectors do from their trace statistics): the
// pause-time portion skips even the census walk and is O(1).
func BenchmarkSweepLazyArm(b *testing.B) {
	h := New(benchHeapWords)
	h.SetLazySweep(true)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillBenchHeap(b, h, rng)
		var marked, markedWords uint64
		h.Iterate(func(r Ref, hd uint64) {
			if hd&FlagMark != 0 {
				marked++
				markedWords += uint64(DecodeSizeWords(hd))
			}
		})
		b.StartTimer()
		h.Sweep(SweepOptions{MarkedKnown: true, MarkedObjects: marked, MarkedWords: markedWords})
		b.StopTimer()
		h.CompleteSweep()
		b.StartTimer()
	}
}

// BenchmarkSweepLazyTotal measures census plus full deferred reclamation —
// the end-to-end cost, for comparison against the eager walk.
func BenchmarkSweepLazyTotal(b *testing.B) { benchmarkSweep(b, true) }

// BenchmarkAllocEager / BenchmarkAllocLazyDemand measure the allocator with
// free lists already populated (eager) versus self-serving from a pending
// sweep (lazy demand), isolating the per-allocation cost of demand sweeping.
func benchmarkAllocAfterSweep(b *testing.B, lazy bool) {
	h := New(benchHeapWords)
	h.SetLazySweep(lazy)
	fillBenchHeap(b, h, rand.New(rand.NewSource(1)))
	h.Sweep(SweepOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Alloc(KindScalar, 1, 8); err != nil {
			// Heap refilled: reclaim everything and start over.
			b.StopTimer()
			h.CompleteSweep()
			h.Sweep(SweepOptions{}) // nothing marked: frees all
			b.StartTimer()
		}
	}
}

func BenchmarkAllocEager(b *testing.B)      { benchmarkAllocAfterSweep(b, false) }
func BenchmarkAllocLazyDemand(b *testing.B) { benchmarkAllocAfterSweep(b, true) }
