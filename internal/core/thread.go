package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/classes"
	"repro/internal/vmheap"
)

// Thread is a mutator thread: its stack of frame slots is part of the root
// set, and it carries the per-thread region state of start-region /
// assert-alldead. Thread methods may be called from any goroutine; a
// goroutine-per-Thread structure mirrors the threads of a managed language. A
// single Thread is owned by one goroutine at a time, as in a managed
// language; Runtime methods and other Threads may run concurrently with it.
type Thread struct {
	rt   *Runtime
	name string

	// The slot stack, one contiguous region as in a JVM thread (DESIGN.md
	// §11). slots[:top] are the local slots of every pushed frame, bottom
	// frame first, and are exactly this thread's roots: nothing above top is
	// scanned, so a popped frame roots nothing. frames[d] is the base and the
	// push stamp of the frame at depth d for d < depth; frames never shrinks,
	// and a pop zeroes its depth's stamp. pushes numbers the pushes, so a
	// stamp names one push. Only the owning goroutine changes the stack, under
	// rt.mu unless solo; the root scan reads slots and top under rt.mu.
	slots  []Ref
	top    int
	frames []frameMark
	depth  int
	pushes uint64

	// regions are the open start-region brackets, innermost last, each the
	// queue of objects this thread allocated inside it. The paper keeps one
	// flag per thread; nested brackets generalize it (the innermost one
	// receives allocations). allocs counts allocations not batched in buf.
	regions [][]Ref
	allocs  uint64

	// Allocation-buffer mode (Config.AllocBuffers): buf is this thread's
	// bump buffer, and regionFrom is the buffer position of the first
	// bump-allocated object not yet recorded in the innermost region
	// queue (region recording is batched and flushed at retirement and at
	// region-bracket boundaries).
	//
	// Locking: the bump fast path deliberately does not take rt.mu — the
	// buffer's span is this thread's exclusive property, so a global lock
	// would serialize (and, at bump-allocation cost scale, dominate) the
	// very path the buffers exist to make cheap. Instead bufMu, a
	// per-thread spinlock, guards buf: the fast path holds only bufMu,
	// and the cross-thread accessors — flushBuffer (reached from
	// flushAllocBuffers at every GC entry and heap observation), the
	// Stats fold, and Allocs — claim bufMu too, always while holding
	// rt.mu (lock order: rt.mu, then bufMu; never the reverse). The
	// owner's own slow-path refill and region operations run under rt.mu
	// and need no bufMu: the owning goroutine cannot be in the fast path
	// and a slow path at once, and every other accessor holds rt.mu.
	// While the runtime is provably single-mutator (Runtime.mutators) even
	// bufMu is elided on the bump path, by the argument made there.
	buf        vmheap.AllocBuffer
	bufMu      atomic.Int32
	regionFrom uint32
}

// frameMark is one pushed frame's entry in Thread.frames.
type frameMark struct {
	base  int
	stamp uint64 // the push that made the frame; 0 once it is popped
}

// lockBuf claims the buffer spinlock. Hold times are a handful of
// nanoseconds (one bump or one fold), so spinning beats parking; Gosched
// keeps a single-core scheduler from livelocking when the holder is
// descheduled mid-bump.
func (t *Thread) lockBuf() {
	for !t.bufMu.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

func (t *Thread) unlockBuf() { t.bufMu.Store(0) }

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// OutOfMemoryError is the panic value raised when an allocation cannot be
// satisfied even after a full collection — the analog of a JVM
// OutOfMemoryError under the paper's fixed-heap methodology.
type OutOfMemoryError struct {
	RequestWords uint32
	LiveWords    uint64
	HeapWords    uint64
}

// Error implements the error interface.
func (e *OutOfMemoryError) Error() string {
	return fmt.Sprintf("core: out of memory: need %d words, %d of %d live after full GC",
		e.RequestWords, e.LiveWords, e.HeapWords)
}

// Frame is a handle on one activation record: n local slots at base on its
// thread's slot stack. It is a value, so a push costs no Go allocation. The
// handle is valid from its PushFrame until the matching PopFrame; every
// method compares its stamp with the one its depth holds now, so a handle used
// after its frame was popped — or after another frame was pushed at its depth
// — panics in every build instead of reaching the other frame's slots.
type Frame struct {
	t              *Thread
	depth, base, n int32
	stamp          uint64
}

// errStaleFrame is the panic value of a Frame used after its PopFrame.
const errStaleFrame = "core: use of a popped frame (its depth was popped, or pushed again since the frame was made)"

// PushFrame pushes a frame with n local root slots, all Nil: a slot reused
// from a popped frame does not keep that frame's object alive.
func (t *Thread) PushFrame(n int) Frame {
	if !t.rt.solo() {
		defer t.rt.lockMu()()
	}
	base, top := t.top, t.top+n
	if top > len(t.slots) {
		t.slots = append(t.slots, make([]Ref, top-len(t.slots))...)
	}
	clear(t.slots[base:top])
	t.top = top
	if t.depth == len(t.frames) {
		t.frames = append(t.frames, frameMark{})
	}
	t.pushes++
	t.frames[t.depth] = frameMark{base: base, stamp: t.pushes}
	f := Frame{t: t, depth: int32(t.depth), base: int32(base), n: int32(n), stamp: t.pushes}
	t.depth++
	return f
}

// PopFrame pops the thread's current frame. It panics if the thread has no
// frames; unbalanced push/pop is a programming error in the mutator.
func (t *Thread) PopFrame() {
	if !t.rt.solo() {
		defer t.rt.lockMu()()
	}
	if t.depth == 0 {
		panic(fmt.Sprintf("core: PopFrame on %s with empty stack", t.name))
	}
	t.depth--
	m := &t.frames[t.depth]
	t.top = m.base
	m.stamp = 0
}

// at returns the address of local slot i, after the stamp check: it panics
// if f is stale or i is out of range.
func (f Frame) at(i int) *Ref {
	if f.t.frames[f.depth].stamp != f.stamp {
		panic(errStaleFrame)
	}
	if uint(i) >= uint(f.n) {
		panic(fmt.Sprintf("core: frame slot %d out of range [0:%d]", i, f.n))
	}
	return &f.t.slots[int(f.base)+i]
}

// Thread returns the thread whose stack holds the frame.
func (f Frame) Thread() *Thread { return f.t }

// Local returns the reference in slot i.
func (f Frame) Local(i int) Ref {
	if !f.t.rt.solo() {
		defer f.t.rt.lockMu()()
	}
	return *f.at(i)
}

// SetLocal stores a reference in slot i.
func (f Frame) SetLocal(i int, r Ref) {
	if !f.t.rt.solo() {
		defer f.t.rt.lockMu()()
	}
	*f.at(i) = r
}

// New allocates an instance of c, running garbage collections as needed.
// It panics with *OutOfMemoryError when the heap cannot satisfy the request
// even after a full collection, and with *report.HaltError if a collection
// run on its behalf hit a Halt-requesting violation.
//
// The Ref it returns is a Go value, which no collection sees. On a runtime
// where another goroutine can collect (after NewThread, or under
// ConcurrentGC) the object may be reclaimed before the caller stores it, so
// code there allocates with Frame.New instead. The same holds for
// NewRefArray, NewDataArray and NewString.
func (t *Thread) New(c *Class) Ref {
	return t.mustAlloc(vmheap.KindScalar, c.ID, c.FieldWords, nil, "")
}

// TryNew is New returning errors instead of panicking.
func (t *Thread) TryNew(c *Class) (Ref, error) {
	return t.alloc(vmheap.KindScalar, c.ID, c.FieldWords, nil, "")
}

// NewRefArray allocates an array of n references (all Nil).
func (t *Thread) NewRefArray(n int) Ref {
	return t.mustAlloc(vmheap.KindRefArray, classes.RefArrayClassID, uint32(n), nil, "")
}

// NewDataArray allocates an array of n raw data words (all zero).
func (t *Thread) NewDataArray(n int) Ref {
	return t.mustAlloc(vmheap.KindDataArray, classes.DataArrayClassID, uint32(n), nil, "")
}

// New allocates an instance of c on the frame's thread and stores it into
// local slot i inside the critical section that allocates it (the bump
// path's spinlock, or rt.mu), so no collection by another goroutine falls
// between the allocation and its rooting (DESIGN.md §11). It returns the Ref
// as well, and panics as Thread.New does. NewRefArray, NewDataArray and
// NewString are the same for the other kinds of object.
func (f Frame) New(i int, c *Class) Ref {
	return f.t.mustAlloc(vmheap.KindScalar, c.ID, c.FieldWords, f.at(i), "")
}

// NewRefArray allocates an array of n references into local slot i.
func (f Frame) NewRefArray(i, n int) Ref {
	return f.t.mustAlloc(vmheap.KindRefArray, classes.RefArrayClassID, uint32(n), f.at(i), "")
}

// NewDataArray allocates an array of n data words into local slot i.
func (f Frame) NewDataArray(i, n int) Ref {
	return f.t.mustAlloc(vmheap.KindDataArray, classes.DataArrayClassID, uint32(n), f.at(i), "")
}

// mustAlloc is alloc panicking with its error.
func (t *Thread) mustAlloc(kind vmheap.Kind, classID uint32, n uint32, dst *Ref, s string) Ref {
	r, err := t.alloc(kind, classID, n, dst, s)
	if err != nil {
		panic(err)
	}
	return r
}

// alloc dispatches an allocation. With buffers enabled
// (Config.AllocBuffers — immutable after New, so the read needs no lock)
// the common case is a bounds check, a header store, and a cursor bump —
// stats and region recording are batched in the buffer and settled when it is
// retired (see the locking comment on Thread.buf). Until NewThread creates a
// second mutator the bump needs no lock at all: the spinlock's CAS+store pair
// costs more than half of a direct free-list allocation on a contemporary
// core, so eliding it while provably single-mutator (Runtime.mutators) is
// what makes the fast path fast. Every path ends in publish, inside its
// critical section: dst, when not nil, is the frame slot the object goes
// into, and a non-empty s is the payload of a string.
func (t *Thread) alloc(kind vmheap.Kind, classID uint32, n uint32, dst *Ref, s string) (Ref, error) {
	rt := t.rt
	if torture {
		rt.torturePointUnlocked()
	}
	if rt.allocBufWords > 0 {
		if rt.solo() {
			if r, ok := t.buf.Alloc(kind, classID, n); ok {
				rt.publish(r, dst, s)
				return r, nil
			}
		} else {
			t.lockBuf()
			r, ok := t.buf.Alloc(kind, classID, n)
			if ok {
				rt.publish(r, dst, s)
			}
			t.unlockBuf()
			if ok {
				if torture {
					rt.torturePointUnlocked() // the slow path's is lockMu's
				}
				return r, nil
			}
		}
	}
	return t.allocSlow(kind, classID, n, dst, s)
}

// publish finishes a fresh object inside the critical section that allocated
// it: a string's payload is written, then the Ref goes into the frame slot
// dst when the caller gave one. A root scan therefore finds the object rooted
// and whole, or not allocated at all.
func (rt *Runtime) publish(r Ref, dst *Ref, s string) {
	if torture {
		rt.tortureBorn(r)
	}
	if s != "" {
		rt.writeString(r, s)
	}
	if dst != nil {
		*dst = r
	}
}

// allocSlow is allocation off the bump path, and the scheduler's hook point:
// run the pacing hook, refill the buffer if buffers are enabled, else (or when
// refill declines) allocate from the free lists, collecting on exhaustion;
// record the object in any active region bracket on this thread. Unless solo
// it runs under rt.mu.
func (t *Thread) allocSlow(kind vmheap.Kind, classID uint32, n uint32, dst *Ref, s string) (Ref, error) {
	rt := t.rt
	if !rt.solo() {
		defer rt.lockMu()()
	}

	if p := rt.pacer; p != nil {
		// Surface a HaltError from a cycle that completed with no caller, then
		// run the pacing hook — trigger check plus assist tax — for the words
		// this allocation is about to consume (the object, plus a buffer carve
		// if one will happen) — and nudge the goroutine while the lock is
		// still held: it queues on rt.mu behind this allocation instead of
		// taking the lock out from under the mutator's next operation.
		if err := rt.takePacerPending(); err != nil {
			return Nil, err
		}
		p.allocPacingLocked(uint64(vmheap.ObjectWords(kind, n)) + uint64(rt.allocBufWords))
		p.maybeWake()
	}

	if rt.allocBufWords > 0 {
		if r, ok := t.refillAlloc(kind, classID, n); ok {
			rt.publish(r, dst, s)
			return r, nil
		}
		// Fall through to the direct path: object larger than a buffer, an
		// argument the buffer declined to validate, or the free lists cannot
		// supply even a minimal buffer (a collection may be needed).
	}

	r, err := rt.heap.Alloc(kind, classID, n)
	switch {
	case err == vmheap.ErrHeapExhausted:
		r, err = t.allocExhausted(kind, classID, n)
	case err != nil:
		err = rt.outOfMemory(n) // an argument the heap declined
	}
	if err != nil {
		return Nil, err
	}

	// The paper: "Every allocation checks the flag to determine if it
	// occurred within a region, and if it is, the allocated object is
	// added to the queue."
	if len(t.regions) > 0 {
		t.recordRegion(r)
	}
	t.allocs++
	if rt.pacer != nil {
		rt.collector.DidAllocate(r) // born black if a cycle is open
	}
	rt.publish(r, dst, s)
	return r, nil
}

// allocExhausted is the allocation slow path's exhaustion ladder: retire
// every buffer, complete an open cycle, collect fully (again while a
// collection vacates an owner), retrying the allocation after each.
// Caller holds rt.mu (or is solo).
func (t *Thread) allocExhausted(kind vmheap.Kind, classID uint32, n uint32) (Ref, error) {
	rt := t.rt
	r, err := Nil, vmheap.ErrHeapExhausted
	if rt.allocBufWords > 0 {
		// Other threads' buffer tails may hold the needed words; retire
		// every buffer before paying for a collection.
		rt.flushAllocBuffers()
		r, err = rt.heap.Alloc(kind, classID, n)
	}
	if err == vmheap.ErrHeapExhausted && rt.cycleOpen() {
		if cerr := rt.settleCycleLocked(); cerr != nil {
			return Nil, cerr
		}
		r, err = rt.heap.Alloc(kind, classID, n)
	}
	// A full collection follows a settled cycle too, since that cycle's
	// snapshot predates the garbage allocated while it ran. Another follows
	// only a collection that vacated a dying owner: the owner's region
	// survives that collection on the ownership pre-phase's marks, and the
	// next one frees it. Otherwise a second would trace the same roots and
	// free nothing.
	for err == vmheap.ErrHeapExhausted {
		if cerr := rt.collector.CollectFull(); cerr != nil {
			return Nil, cerr
		}
		r, err = rt.heap.Alloc(kind, classID, n)
		if rt.engine == nil || rt.engine.VacatedOwners() == 0 {
			break
		}
	}
	if err != nil {
		return Nil, rt.outOfMemory(n)
	}
	return r, nil
}

// outOfMemory builds the error of an allocation no collection could satisfy.
func (rt *Runtime) outOfMemory(n uint32) error {
	return &OutOfMemoryError{
		RequestWords: n,
		LiveWords:    rt.heap.LiveWords(),
		HeapWords:    rt.heap.CapacityWords(),
	}
}

// refillAlloc retires the thread's exhausted buffer, carves a fresh one,
// and satisfies the allocation from it. ok=false sends the caller to the
// direct path: for objects too large for a buffer, or when the free lists
// cannot supply even a minimal buffer. Caller holds rt.mu (or is solo).
func (t *Thread) refillAlloc(kind vmheap.Kind, classID uint32, n uint32) (Ref, bool) {
	rt := t.rt
	need := vmheap.ObjectWords(kind, n)
	if need > rt.allocBufWords || need > vmheap.MaxObjectWords || classID > vmheap.MaxClassID {
		// Oversized object (keep the current buffer — it may still serve
		// smaller allocations) or an invalid class id: allocate directly,
		// which reports the class-id overflow the same way as the
		// buffers-off configuration.
		return Nil, false
	}
	t.flushBuffer()
	if !rt.heap.CarveBuffer(&t.buf, need, rt.allocBufWords) {
		return Nil, false
	}
	if rt.cycleOpen() {
		// Mid-cycle carve: every object bump-allocated from this buffer
		// is born black (no snapshot reference can reach it, and its
		// slots hold nothing to scan), keeping the fast path one header
		// store without a per-object collector call. Retire zeroes the
		// mask, and every cycle boundary retires all buffers, so the
		// flags can never go stale across cycles.
		t.buf.SetAllocFlags(vmheap.FlagMark | vmheap.FlagScanned)
	}
	if len(t.regions) > 0 {
		t.regionFrom = t.buf.Pos()
	}
	r, ok := t.buf.Alloc(kind, classID, n)
	if !ok {
		panic("core: fresh allocation buffer cannot satisfy its triggering allocation")
	}
	return r, ok
}

// flushBuffer retires t's allocation buffer: batched region recording is
// flushed, the batched allocation count is folded into the thread, and the
// buffer's unused tail returns to the free lists. A no-op when the buffer
// is inactive. Caller holds rt.mu; the buffer spinlock is claimed here
// because the caller may be flushing another thread's buffer
// (flushAllocBuffers) while its owner is mid-bump.
func (t *Thread) flushBuffer() {
	t.lockBuf()
	defer t.unlockBuf()
	if !t.buf.Active() {
		return
	}
	t.flushRegionRecords()
	t.allocs += t.buf.PendingObjects()
	t.buf.Retire()
}

// flushRegionRecords appends the thread's not-yet-recorded bump-allocated
// objects to its innermost region queue, in allocation order. Called at
// buffer retirement and at region-bracket boundaries (StartRegion records
// into the enclosing bracket before the new one opens; AssertAllDead
// records before the bracket closes). Caller holds rt.mu (or is solo).
func (t *Thread) flushRegionRecords() {
	if t.buf.Active() && len(t.regions) > 0 {
		t.buf.EachObjectFrom(t.regionFrom, t.recordRegion)
		t.regionFrom = t.buf.Pos()
	}
}

// recordRegion queues a newly allocated object on the innermost open region.
func (t *Thread) recordRegion(r Ref) {
	q := &t.regions[len(t.regions)-1]
	*q = append(*q, r)
}

// Allocs returns the number of allocations this thread performed,
// including any still batched in its allocation buffer.
func (t *Thread) Allocs() uint64 {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	t.lockBuf()
	defer t.unlockBuf()
	return t.allocs + t.buf.PendingObjects()
}
