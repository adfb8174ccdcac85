package vmheap

import (
	"math/rand"
	"testing"
)

// benchHeapWords sizes the benchmark arena: 32 MiB of words.
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

func BenchmarkSweepEager(b *testing.B) {
	h := New(benchHeapWords)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillBenchHeap(b, h, rng)
		b.StartTimer()
		h.Sweep(SweepOptions{})
	}
}

// BenchmarkAllocEager measures the allocator with free lists already
// populated by a sweep over a fragmented heap.
func BenchmarkAllocEager(b *testing.B) {
	h := New(benchHeapWords)
	fillBenchHeap(b, h, rand.New(rand.NewSource(1)))
	h.Sweep(SweepOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Alloc(KindScalar, 1, 8); err != nil {
			// Heap refilled: reclaim everything and start over.
			b.StopTimer()
			h.Sweep(SweepOptions{}) // nothing marked: frees all
			b.StartTimer()
		}
	}
}
