package core

import (
	"fmt"
	"testing"
)

// Core-level steady-state allocation benchmarks: the full Thread.New path
// (lock, fast path or free-list, bookkeeping) with and without allocation
// buffers. Every object is garbage the moment it is allocated — the loop
// measures allocation cost alone, not rooting. Complements the
// vmheap-level matrix (BenchmarkAllocDirect/BenchmarkAllocBuffered in
// internal/vmheap), which isolates the heap layer.
var benchSink Ref

func benchmarkCoreAlloc(b *testing.B, bufWords int) {
	rt := New(Config{HeapWords: 1 << 19, Mode: Base, AllocBuffers: bufWords})
	order := rt.DefineClass("bench.Order", RefField("lines"), DataField("total"))
	th := rt.MainThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = th.New(order)
	}
}

func BenchmarkCoreAlloc(b *testing.B) {
	for _, bw := range []int{0, 256, 1024, 4096} {
		name := "direct"
		if bw > 0 {
			name = fmt.Sprintf("buffered-%d", bw)
		}
		b.Run(name, func(b *testing.B) { benchmarkCoreAlloc(b, bw) })
	}
}
