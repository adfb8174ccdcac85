package core

import (
	"repro/internal/assertions"
	"repro/internal/gc"
	"repro/internal/vmheap"
)

// HeapStats is a snapshot of heap occupancy.
type HeapStats struct {
	CapacityWords uint64
	LiveWords     uint64
	FreeWords     uint64
	LiveObjects   uint64
	TotalAllocs   uint64
	TotalWords    uint64
	// BufferCarves and BufferAllocs count allocation-buffer refills and the
	// allocations served by the bump-pointer fast path (Config.AllocBuffers);
	// both stay zero under the default direct allocation.
	BufferCarves uint64
	BufferAllocs uint64
}

// Snapshot bundles the observable state of a runtime at one instant.
type Snapshot struct {
	Heap HeapStats
	GC   gc.Stats
	// Asserts is zero in Base mode.
	Asserts assertions.Stats
	// Pacer counts cycle-scheduler activity; all zero without
	// Config.IncrementalBudget.
	Pacer PacerStats
}

// Stats returns a consistent snapshot of heap, collector and assertion
// statistics.
func (rt *Runtime) Stats() Snapshot {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s := Snapshot{
		Heap: HeapStats{
			CapacityWords: rt.heap.CapacityWords(),
			LiveWords:     rt.heap.LiveWords(),
			FreeWords:     rt.heap.FreeWords(),
			LiveObjects:   rt.heap.LiveObjects(),
			TotalAllocs:   rt.heap.TotalAllocs(),
			TotalWords:    rt.heap.TotalAllocWords(),
		},
		GC: *rt.collector.Stats(),
	}
	s.Heap.BufferCarves, s.Heap.BufferAllocs = rt.heap.BufferStats()
	// Fold in allocations still batched in active allocation buffers so
	// the snapshot is exact without forcing a retirement (Stats must not
	// mutate the heap). The buffer spinlock excludes each owner's bump
	// path, which runs outside rt.mu.
	for _, t := range rt.threads {
		t.lockBuf()
		if t.buf.Active() {
			used := t.buf.UsedWords()
			objs := t.buf.PendingObjects()
			s.Heap.LiveWords += used
			s.Heap.FreeWords += t.buf.TailWords()
			s.Heap.LiveObjects += objs
			s.Heap.TotalAllocs += objs
			s.Heap.TotalWords += used
			s.Heap.BufferAllocs += objs
		}
		t.unlockBuf()
	}
	if rt.engine != nil {
		s.Asserts = rt.engine.Stats()
		s.GC.SideTabChunkBytes = rt.engine.SideTabFootprint()
	}
	if rt.pacer != nil {
		s.Pacer = rt.pacer.stats
	}
	return s
}

// Classes returns every class defined on the runtime, including the two
// built-in array pseudo-classes, in definition order (IDs are dense and
// equal the slice index). Intended for tools such as heap snapshots.
func (rt *Runtime) Classes() []*Class {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Class, rt.reg.NumClasses())
	for i := range out {
		out[i] = rt.reg.ByID(uint32(i))
	}
	return out
}

// EachGlobal reports every global root slot (name and current reference).
func (rt *Runtime) EachGlobal(fn func(name string, r Ref)) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, name := range rt.globalNames {
		fn(name, rt.globals[i])
	}
}

// KindOf reports the layout kind of the object at r: 0 scalar, 1 reference
// array, 2 data array (tool-grade accessor for snapshot/census code).
func (rt *Runtime) KindOf(r Ref) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return int(rt.heap.KindOf(r))
}

// OutEdges returns the non-nil references held by obj's fields (scalar
// objects) or elements (reference arrays). Intended for tools (heap
// visualization, censuses), not hot paths.
func (rt *Runtime) OutEdges(obj Ref) []Ref {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.heap.IsObject(obj) {
		return nil
	}
	var out []Ref
	switch rt.heap.KindOf(obj) {
	case vmheap.KindScalar:
		for _, off := range rt.reg.RefOffsets(rt.heap.ClassID(obj)) {
			if c := rt.heap.RefAt(obj, uint32(off)); c != Nil {
				out = append(out, c)
			}
		}
	case vmheap.KindRefArray:
		for i, n := uint32(0), rt.heap.ArrayLen(obj); i < n; i++ {
			if c := Ref(rt.heap.ArrayWord(obj, i)); c != Nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// VerifyHeap runs the full heap-integrity verifier (structure, free-list
// bins and accounting, reference validity) and returns any violations found. It
// must be called between collections, not during one. Expensive; intended
// for tests and debugging tools.
func (rt *Runtime) VerifyHeap() []error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.flushAllocBuffers()
	return rt.heap.Verify(rt.reg)
}

// AllocatedInstanceCount walks the heap and counts the allocated instances
// of c. Unreachable instances linger until the next collection, so tools
// wanting live counts run GC first. Intended for tools and tests, not hot
// paths (it is a full heap walk).
func (rt *Runtime) AllocatedInstanceCount(c *Class) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.flushAllocBuffers()
	n := 0
	rt.heap.Iterate(func(r Ref, _ uint64) {
		if rt.heap.ClassID(r) == c.ID {
			n++
		}
	})
	return n
}
