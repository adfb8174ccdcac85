package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/classes"
	"repro/internal/threads"
	"repro/internal/vmheap"
)

// Thread is a mutator thread: its frame locals are GC roots, and it carries
// the per-thread region state of start-region / assert-alldead. Thread
// methods may be called from any goroutine; a goroutine-per-Thread
// structure mirrors a managed language's threads. A single Thread is
// owned by one goroutine at a time, as in a managed language; Runtime
// methods and other Threads may run concurrently with it.
type Thread struct {
	rt *Runtime
	th *threads.Thread

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

	// Hidden-register pins (concurrent.go): the thread's most recent
	// allocations, stamped with the sweep epoch they were born in, so a
	// concurrently starting cycle can root them before the mutator has
	// published them. Written under bufMu (bump path) or rt.mu (slow
	// path); collectPins reads under both. Unused unless ConcurrentGC.
	pins   [threadPinSlots]allocPin
	pinPos uint8

	// zheap is the heap zone this thread allocates from: rt.heap (zone 0)
	// at creation, redirected by SetZone. On an unzoned runtime it is
	// always rt.heap. Written only by the owning goroutine (SetZone, under
	// rt.mu, after retiring the buffer) and read lock-free on the
	// allocation fast path — the owner cannot be mid-bump and in SetZone
	// at once; all other readers hold rt.mu.
	zheap *vmheap.Heap
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
func (t *Thread) Name() string { return t.th.Name() }

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

// Frame is an activation record whose local slots are GC roots.
type Frame struct {
	rt *Runtime
	f  *threads.Frame
}

// PushFrame pushes a frame with n local root slots.
func (t *Thread) PushFrame(n int) *Frame {
	if !t.rt.solo() {
		defer t.rt.lockMu()()
	}
	return &Frame{rt: t.rt, f: t.th.PushFrame(n)}
}

// PopFrame pops the thread's current frame.
func (t *Thread) PopFrame() {
	if !t.rt.solo() {
		defer t.rt.lockMu()()
	}
	t.th.PopFrame()
	if t.th.Depth() == 0 && t.rt.pinsActive() {
		// The thread's last frame is gone: no caller remains to receive a
		// Ref held in a Go variable, so the hidden-register pins covering
		// this thread's recent unpublished allocations are dead. Dropping
		// them here keeps pin retention from leaking past a thread's
		// working life (a quiescent thread's ring would otherwise hold its
		// last allocations live forever). While pins are inactive nothing
		// has ever written the ring.
		t.lockBuf()
		for i := range t.pins {
			t.pins[i] = allocPin{}
		}
		t.unlockBuf()
	}
}

// Local returns the reference in slot i.
func (f *Frame) Local(i int) Ref {
	if !f.rt.solo() {
		defer f.rt.lockMu()()
	}
	return f.f.Local(i)
}

// SetLocal stores a reference in slot i.
func (f *Frame) SetLocal(i int, r Ref) {
	if !f.rt.solo() {
		defer f.rt.lockMu()()
	}
	f.f.SetLocal(i, r)
}

// New allocates an instance of c, running garbage collections as needed.
// It panics with *OutOfMemoryError when the heap cannot satisfy the request
// even after a full collection, and with *report.HaltError if a collection
// run on its behalf hit a Halt-requesting violation.
func (t *Thread) New(c *Class) Ref {
	r, err := t.TryNew(c)
	if err != nil {
		panic(err)
	}
	return r
}

// TryNew is New returning errors instead of panicking.
func (t *Thread) TryNew(c *Class) (Ref, error) {
	return t.alloc(vmheap.KindScalar, c.ID, c.FieldWords)
}

// NewRefArray allocates an array of n references (all Nil).
func (t *Thread) NewRefArray(n int) Ref {
	r, err := t.alloc(vmheap.KindRefArray, classes.RefArrayClassID, uint32(n))
	if err != nil {
		panic(err)
	}
	return r
}

// NewDataArray allocates an array of n raw data words (all zero).
func (t *Thread) NewDataArray(n int) Ref {
	r, err := t.alloc(vmheap.KindDataArray, classes.DataArrayClassID, uint32(n))
	if err != nil {
		panic(err)
	}
	return r
}

// alloc dispatches an allocation. With buffers enabled
// (Config.AllocBuffers — immutable after New, so the read needs no lock)
// the common case is a bounds check, a header store, and a cursor bump —
// stats, region recording, and the incremental trigger check are batched
// in the buffer and settled when it is retired (see the locking comment on
// Thread.buf). Until NewThread creates a second mutator the bump needs no
// lock at all: the spinlock's CAS+store pair costs more than half of a
// direct free-list allocation on a contemporary core, so eliding it while
// provably single-mutator (Runtime.mutators) is what makes the fast path
// fast.
func (t *Thread) alloc(kind vmheap.Kind, classID uint32, n uint32) (Ref, error) {
	rt := t.rt
	if rt.allocBufWords > 0 {
		if rt.solo() {
			if r, ok := t.buf.Alloc(kind, classID, n); ok {
				return r, nil
			}
		} else {
			t.lockBuf()
			r, ok := t.buf.Alloc(kind, classID, n)
			if ok && rt.pinsActive() {
				t.notePin(r)
			}
			t.unlockBuf()
			if ok {
				return r, nil
			}
		}
	}
	return t.allocSlow(kind, classID, n)
}

// allocSlow is allocation off the bump path: refill the buffer if buffers
// are enabled, else (or when refill declines) allocate from the free
// lists, collecting (then collecting fully) on exhaustion; record the
// object in any active region bracket on this thread.
func (t *Thread) allocSlow(kind vmheap.Kind, classID uint32, n uint32) (Ref, error) {
	if t.rt.zlocks != nil {
		return t.allocSlowZoned(kind, classID, n)
	}
	rt := t.rt
	if !rt.solo() {
		defer rt.lockMu()()
	}

	if rt.pacer != nil {
		// Surface a HaltError from a background-completed cycle, then run
		// the pacing hook — trigger check plus assist tax — for the words
		// this allocation is about to consume (the object, plus a buffer
		// carve if one will happen).
		if err := rt.takePacerPending(); err != nil {
			return Nil, err
		}
		rt.pacer.allocPacingLocked(0, uint64(vmheap.ObjectWords(kind, n))+uint64(rt.allocBufWords))
		defer rt.pacer.maybeWake()
	}

	if rt.allocBufWords > 0 {
		if r, ok := t.refillAlloc(kind, classID, n); ok {
			return r, nil
		}
		// Fall through to the direct path: incremental cycle active,
		// object larger than a buffer, an argument the buffer declined to
		// validate, or the free lists cannot supply even a minimal buffer
		// (a collection may be needed).
	}

	r, err := t.zheap.Alloc(kind, classID, n)
	if err == vmheap.ErrHeapExhausted && rt.allocBufWords > 0 {
		// Other threads' buffer tails may hold the needed words; retire
		// every buffer before paying for a collection.
		rt.flushAllocBuffers()
		r, err = t.zheap.Alloc(kind, classID, n)
	}
	if err == vmheap.ErrHeapExhausted {
		// The collection about to run scans roots; other threads may hold
		// unpublished allocations (concurrent.go).
		rt.collectPins()
		if cerr := rt.collector.Collect(); cerr != nil {
			return Nil, cerr
		}
		r, err = t.zheap.Alloc(kind, classID, n)
		if err == vmheap.ErrHeapExhausted {
			// A generational minor collection may not have freed
			// enough; fall back to a full collection.
			if cerr := rt.collector.CollectFull(); cerr != nil {
				return Nil, cerr
			}
			r, err = t.zheap.Alloc(kind, classID, n)
		}
	}
	if err != nil {
		return Nil, &OutOfMemoryError{
			RequestWords: n,
			LiveWords:    rt.heap.LiveWords(),
			HeapWords:    rt.heap.CapacityWords(),
		}
	}

	// The paper: "Every allocation checks the flag to determine if it
	// occurred within a region, and if it is, the allocated object is
	// added to the queue."
	if t.th.InRegion() {
		t.th.RecordRegionAlloc(r)
	}
	t.th.CountAlloc()

	if rt.pinsActive() {
		t.notePin(r)
	}

	// Incremental mode (a no-op otherwise): start a cycle when free space
	// runs low, allocate black during an active cycle, and pay one mark
	// slice as an allocation tax. A tax slice can complete the cycle and
	// sweep, so any outstanding buffers must be retired first. Under the
	// pacer the hook only blackens (cycle scheduling and the tax are the
	// pacer's), so no retirement is needed.
	if rt.incremental && rt.pacer == nil {
		rt.flushAllocBuffers()
	}
	rt.collector.DidAllocate(r)
	return r, nil
}

// allocSlowZoned is the slow path on a zone-sharded runtime. Unless solo it
// runs under the allocating zone's lock (plus rt.mu when whole-heap cycles
// require it — Runtime.zonedMu), so threads parked in different zones refill
// and allocate concurrently, and an allocation here never blocks on another
// zone's in-flight collection. Heap exhaustion is the one escalation point:
// the zone-level locks are released and the collection (plus the retry) runs
// under the world lock.
func (t *Thread) allocSlowZoned(kind vmheap.Kind, classID uint32, n uint32) (Ref, error) {
	rt := t.rt
	zh := t.zheap // owning goroutine; cannot race its own SetZone
	zi := zh.ZoneID()
	unlock := func() {}
	if !rt.solo() {
		unlock = rt.lockZone(zi)
	}

	if rt.pacer != nil {
		// zonedMu is always true under the pacer, so rt.mu is held here.
		if err := rt.takePacerPending(); err != nil {
			unlock()
			return Nil, err
		}
		rt.pacer.allocPacingLocked(zi, uint64(vmheap.ObjectWords(kind, n))+uint64(rt.allocBufWords))
		defer rt.pacer.maybeWake()
	}

	if rt.allocBufWords > 0 {
		if r, ok := t.refillAlloc(kind, classID, n); ok {
			unlock()
			return r, nil
		}
	}

	r, err := zh.Alloc(kind, classID, n)
	if err == vmheap.ErrHeapExhausted {
		// The zone is full. Collecting — even flushing other zones' buffers —
		// needs the whole heap quiescent, so trade the zone-level locks for
		// the world lock (all zone locks ascending, then rt.mu) and retry
		// there. This also drains any in-flight concurrent zone collections:
		// they hold their zone locks until they fold their results.
		unlock()
		rt.lockWorld()
		if rt.allocBufWords > 0 {
			rt.flushAllocBuffers()
			r, err = zh.Alloc(kind, classID, n)
		}
		if err == vmheap.ErrHeapExhausted {
			rt.collectPins()
			if cerr := rt.collector.Collect(); cerr != nil {
				rt.unlockWorld()
				return Nil, cerr
			}
			r, err = zh.Alloc(kind, classID, n)
			if err == vmheap.ErrHeapExhausted {
				if cerr := rt.collector.CollectFull(); cerr != nil {
					rt.unlockWorld()
					return Nil, cerr
				}
				r, err = zh.Alloc(kind, classID, n)
			}
		}
		if err != nil {
			oom := &OutOfMemoryError{
				RequestWords: n,
				LiveWords:    rt.heap.LiveWords(),
				HeapWords:    rt.heap.CapacityWords(),
			}
			rt.unlockWorld()
			return Nil, oom
		}
		t.recordSlowAlloc(r)
		if rt.incremental && rt.pacer == nil {
			rt.flushAllocBuffers()
		}
		rt.collector.DidAllocate(r)
		rt.unlockWorld()
		return r, nil
	}
	if err != nil {
		// Non-exhaustion failure (argument the heap declined); report it the
		// way the unzoned path does.
		oom := &OutOfMemoryError{
			RequestWords: n,
			LiveWords:    rt.heap.LiveWords(),
			HeapWords:    rt.heap.CapacityWords(),
		}
		unlock()
		return Nil, oom
	}

	t.recordSlowAlloc(r)
	// The incremental hooks touch whole-heap collector state and read
	// cross-zone aggregates; they require rt.mu (held — incremental implies
	// zonedMu) and must stand down while a concurrent zone collection is
	// mutating its zone's counters under only its zone lock. Skipping is
	// sound: the hooks only trigger or advance cycles, and the next slow
	// allocation after the zone collections fold re-runs them.
	if rt.incremental && rt.pacer == nil && rt.zoneGC == 0 {
		rt.flushAllocBuffers()
		rt.collector.DidAllocate(r)
	} else if rt.incremental && rt.pacer != nil {
		rt.collector.DidAllocate(r)
	}
	unlock()
	return r, nil
}

// recordSlowAlloc is the bookkeeping shared by the zoned slow-path exits:
// region recording (under the engine guard — a concurrent zone collection's
// PreSweep walks region queues under it), the thread's allocation count
// (under the buffer spinlock — the stats fold reads it there), and the pin
// ring. Caller holds at least t's zone lock, plus rt.mu in zonedMu
// configurations (the pacer, hence notePin, implies zonedMu).
func (t *Thread) recordSlowAlloc(r Ref) {
	rt := t.rt
	if rt.engine != nil {
		g := rt.engine.Guard()
		g.Lock()
		if t.th.InRegion() {
			t.th.RecordRegionAlloc(r)
		}
		g.Unlock()
	}
	t.lockBuf()
	t.th.CountAlloc()
	if rt.pinsActive() {
		t.notePin(r) // under bufMu: collectPins may run without this
		// goroutine holding rt.mu in serial zoned mode
	}
	t.unlockBuf()
}

// refillAlloc retires the thread's exhausted buffer, carves a fresh one,
// and satisfies the allocation from it. ok=false sends the caller to the
// direct path: for objects too large for a buffer, while an incremental
// cycle is active (allocate-black and the mark tax are per-object), or
// when the free lists cannot supply even a minimal buffer. Caller holds
// rt.mu (unzoned), or the thread's zone lock plus rt.mu if zonedMu (zoned).
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
	if rt.incremental && rt.pacer == nil {
		// The refill is the batched equivalent of the direct path's
		// per-allocation trigger check. Starting a cycle requires every
		// buffer retired (the cycle ends in a heap parse), and while one
		// is active allocation stays on the direct path. Under the pacer
		// neither applies: triggering is the pacer's growth check, and
		// mid-cycle carves proceed (born black, below).
		if rt.collector.IncrementalActive() {
			return Nil, false
		}
		if rt.zoneGC == 0 {
			// The trigger check reads whole-heap aggregates and retires
			// every thread's buffer; both need the heap quiescent at the
			// zone level (zoneGC is 0 forever on an unzoned runtime).
			rt.flushAllocBuffers()
			rt.collector.DidRefill()
			if rt.collector.IncrementalActive() {
				return Nil, false
			}
		}
	}
	if !t.zheap.CarveBuffer(&t.buf, need, rt.allocBufWords) {
		return Nil, false
	}
	if rt.pacer != nil && rt.collector.IncrementalActive() {
		// Mid-cycle carve: every object bump-allocated from this buffer
		// is born black (no snapshot reference can reach it, and its
		// slots hold nothing to scan), keeping the fast path one header
		// store without a per-object collector call. Retire zeroes the
		// mask, and every cycle boundary retires all buffers, so the
		// flags can never go stale across cycles.
		t.buf.SetAllocFlags(vmheap.FlagMark | vmheap.FlagScanned)
	}
	if t.th.InRegion() {
		t.regionFrom = t.buf.Pos()
	}
	r, ok := t.buf.Alloc(kind, classID, n)
	if !ok {
		panic("core: fresh allocation buffer cannot satisfy its triggering allocation")
	}
	if rt.pinsActive() {
		t.lockBuf()
		t.notePin(r)
		t.unlockBuf()
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
	t.th.AddAllocs(t.buf.PendingObjects())
	t.buf.Retire()
}

// flushRegionRecords appends the thread's not-yet-recorded bump-allocated
// objects to its innermost region queue, in allocation order. Called at
// buffer retirement and at region-bracket boundaries (StartRegion records
// into the enclosing bracket before the new one opens; AssertAllDead
// records before the bracket closes). The queue append runs under the
// engine guard: a concurrent zone collection's PreSweep walks every
// thread's region queues under it. Without an engine there are no regions
// (StartRegion refuses in Base mode), so InRegion is always false.
func (t *Thread) flushRegionRecords() {
	if !t.buf.Active() {
		return
	}
	eng := t.rt.engine
	if eng == nil {
		return
	}
	g := eng.Guard()
	g.Lock()
	if t.th.InRegion() {
		t.buf.EachObjectFrom(t.regionFrom, t.th.RecordRegionAlloc)
		t.regionFrom = t.buf.Pos()
	}
	g.Unlock()
}

// Allocs returns the number of allocations this thread performed,
// including any still batched in its allocation buffer.
func (t *Thread) Allocs() uint64 {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	t.lockBuf()
	defer t.unlockBuf()
	return t.th.Allocs() + t.buf.PendingObjects()
}
