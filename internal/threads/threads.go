// Package threads implements the simulated mutator threads of the gcassert
// runtime. A Thread owns a stack of frames whose local variable slots are
// GC roots, plus the per-thread region state used by the paper's
// start-region / assert-alldead assertions: a boolean "in region" flag and a
// queue of objects allocated while the region is active.
//
// Threads here are a root-set abstraction, not a scheduling one: real Go
// goroutines may drive different Threads concurrently, with the runtime
// serializing heap access (the collector is stop-the-world).
package threads

import (
	"fmt"

	"repro/internal/vmheap"
)

// Frame is one activation record: a fixed set of local variable slots, each
// holding a heap reference or Nil. Locals are the thread's contribution to
// the root set.
type Frame struct {
	locals []vmheap.Ref
}

// Local returns the reference in slot i.
func (f *Frame) Local(i int) vmheap.Ref { return f.locals[i] }

// SetLocal stores a reference in slot i.
func (f *Frame) SetLocal(i int, r vmheap.Ref) { f.locals[i] = r }

// Slot returns the address of slot i, for a store made inside another
// critical section than SetLocal's (an allocation that roots its object).
func (f *Frame) Slot(i int) *vmheap.Ref { return &f.locals[i] }

// NumLocals returns the slot count of the frame.
func (f *Frame) NumLocals() int { return len(f.locals) }

// region is one active start-region bracket. The paper describes a single
// boolean flag per thread; we support a stack of nested regions as a
// natural generalization (the innermost region receives allocations).
type region struct {
	queue []vmheap.Ref
}

// Thread is one simulated mutator thread.
type Thread struct {
	id     int
	name   string
	frames []*Frame

	regions []*region

	// Stats.
	allocs uint64
}

// ID returns the thread's runtime-assigned identifier.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// PushFrame adds a frame with n local slots and returns it.
func (t *Thread) PushFrame(n int) *Frame {
	f := &Frame{locals: make([]vmheap.Ref, n)}
	t.frames = append(t.frames, f)
	return f
}

// PopFrame removes the most recent frame. It panics if the thread has no
// frames; unbalanced push/pop is a programming error in the mutator.
func (t *Thread) PopFrame() {
	if len(t.frames) == 0 {
		panic(fmt.Sprintf("threads: PopFrame on %s with empty stack", t.name))
	}
	t.frames = t.frames[:len(t.frames)-1]
}

// TopFrame returns the current frame, or nil if the stack is empty.
func (t *Thread) TopFrame() *Frame {
	if len(t.frames) == 0 {
		return nil
	}
	return t.frames[len(t.frames)-1]
}

// Depth returns the number of frames on the stack.
func (t *Thread) Depth() int { return len(t.frames) }

// InRegion reports whether a start-region bracket is active — the paper's
// per-thread boolean flag. The allocator checks this on every allocation.
func (t *Thread) InRegion() bool { return len(t.regions) > 0 }

// StartRegion opens a region bracket: subsequent allocations on this thread
// are queued until the matching AssertAllDead.
func (t *Thread) StartRegion() {
	t.regions = append(t.regions, &region{})
}

// RecordRegionAlloc queues a newly allocated object on the innermost active
// region. The caller must have checked InRegion.
func (t *Thread) RecordRegionAlloc(r vmheap.Ref) {
	reg := t.regions[len(t.regions)-1]
	reg.queue = append(reg.queue, r)
}

// EndRegion closes the innermost region and returns its allocation queue —
// the objects that assert-alldead will mark dead. It returns an error when
// no region is active (an unmatched assert-alldead).
func (t *Thread) EndRegion() ([]vmheap.Ref, error) {
	if len(t.regions) == 0 {
		return nil, fmt.Errorf("threads: assert-alldead on %s without start-region", t.name)
	}
	reg := t.regions[len(t.regions)-1]
	t.regions = t.regions[:len(t.regions)-1]
	return reg.queue, nil
}

// PurgeRegionQueues removes entries from every active region queue for
// which keep returns false. The collector calls this after a sweep so that
// queues never hold references to reclaimed (and possibly reused) memory.
func (t *Thread) PurgeRegionQueues(keep func(vmheap.Ref) bool) {
	for _, reg := range t.regions {
		kept := reg.queue[:0]
		for _, r := range reg.queue {
			if keep(r) {
				kept = append(kept, r)
			}
		}
		reg.queue = kept
	}
}

// EachRoot invokes fn with the address of every local slot in every frame.
// Passing slot addresses (not values) lets the collector both read roots
// and write them — the "force the assertion to be true" action nulls root
// references to dead-asserted objects.
func (t *Thread) EachRoot(fn func(slot *vmheap.Ref)) {
	for _, f := range t.frames {
		for i := range f.locals {
			if f.locals[i] != vmheap.Nil {
				fn(&f.locals[i])
			}
		}
	}
}

// CountAlloc bumps the thread's allocation counter.
func (t *Thread) CountAlloc() { t.allocs++ }

// AddAllocs folds a batch of n allocations into the thread's counter (the
// allocation-buffer fast path counts per buffer and flushes at
// retirement).
func (t *Thread) AddAllocs(n uint64) { t.allocs += n }

// Allocs returns the number of allocations performed by this thread.
func (t *Thread) Allocs() uint64 { return t.allocs }

// Set tracks every live thread in a runtime.
type Set struct {
	threads []*Thread
}

// NewSet returns an empty thread set.
func NewSet() *Set { return &Set{} }

// New creates a named thread and adds it to the set.
func (s *Set) New(name string) *Thread {
	t := &Thread{id: len(s.threads), name: name}
	s.threads = append(s.threads, t)
	return t
}

// All returns the threads in creation order. The returned slice must not be
// modified.
func (s *Set) All() []*Thread { return s.threads }

// EachRoot invokes fn for every root slot of every thread.
func (s *Set) EachRoot(fn func(slot *vmheap.Ref)) {
	for _, t := range s.threads {
		t.EachRoot(fn)
	}
}
