package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/assertions"
	"repro/internal/classes"
	"repro/internal/gc"
	"repro/internal/report"
	"repro/internal/roots"
	"repro/internal/telemetry"
	"repro/internal/threads"
	"repro/internal/vmheap"
)

// Ref is a managed-heap reference. The zero value is the null reference.
type Ref = vmheap.Ref

// Nil is the null reference.
const Nil = vmheap.Nil

// Class is runtime class metadata; obtain instances via DefineClass.
type Class = classes.Class

// Field declares one field in DefineClass.
type Field = classes.Field

// RefField declares a reference field (traced by the collector).
func RefField(name string) Field { return Field{Name: name, Kind: classes.RefKind} }

// DataField declares a raw 64-bit data field (ignored by tracing).
func DataField(name string) Field { return Field{Name: name, Kind: classes.DataKind} }

// Mode selects the collector configuration (see the paper's Figures 2-5).
type Mode = gc.Mode

// Collector configurations.
const (
	// Base is the unmodified collector; assertions are unavailable.
	Base = gc.Base
	// Infrastructure enables the assertion machinery on every full
	// collection. Registering assertions on top yields the paper's
	// "WithAssertions" configuration.
	Infrastructure = gc.Infrastructure
)

// Config configures a Runtime. The zero value is not usable: HeapWords is
// required.
type Config struct {
	// HeapWords is the fixed heap capacity in 64-bit words. The paper
	// sizes heaps at twice the minimum live size of each benchmark.
	HeapWords int
	// Mode selects Base or Infrastructure (default Infrastructure).
	Mode Mode
	// Handler receives assertion violations. When nil, violations are
	// only recorded (retrievable via Runtime.Violations).
	Handler report.Handler
	// IncrementalBudget > 0 enables incremental full collections behind a
	// snapshot-at-beginning write barrier, so assertion checks observe the
	// heap as it was when the cycle began. The runtime's cycle scheduler
	// (concurrent.go) opens a cycle when heap occupancy crosses half the
	// capacity, the allocation slow path pays for marking in bounded assists
	// of IncrementalBudget-object slices, and mid-cycle heap growth is
	// hard-capped at a quarter of the capacity; StartGC / GCStep / FinishGC
	// force the same transitions by hand. 0 (the
	// default) keeps the paper's stop-the-world collections — all published
	// figures use it. Requires Infrastructure mode.
	IncrementalBudget int
	// ConcurrentGC adds a background goroutine to that scheduler: it polls
	// the trigger and marks in slices between the mutators' operations, so
	// assists are only what a mutator that outruns it pays. The runtime then
	// counts as shared from the start (no lock elision). An
	// IncrementalBudget of 0 defaults to 512.
	// The runtime owns a goroutine while this is set — call Runtime.Close
	// (after mutators quiesce) to stop it and surface any HaltError a cycle
	// completed with no caller. Off by default: all published figures use
	// the paper's synchronous collections.
	ConcurrentGC bool
	// AllocBuffers > 0 enables the bump-pointer allocation fast path: each
	// thread allocates from a private buffer of that many words carved off
	// the free lists in one piece, and the per-allocation bookkeeping
	// (stats, region-queue recording) is batched per buffer and flushed when
	// the buffer is retired — at refill, before every collection, and before
	// any heap walk. Assertion
	// results are identical to the direct path; only object addresses
	// differ. While the runtime has a single mutator thread the bump path
	// runs without any lock; the first NewThread call switches it to a
	// per-thread spinlock (see NewThread's create-then-start contract).
	// Must be 0 (the default, the paper's direct free-list allocation —
	// all published figures use it) or at least vmheap.MinBufferWords, and
	// smaller than the heap.
	AllocBuffers int
	// Telemetry, when non-nil, attaches an event recorder to the runtime:
	// the collector, tracer, sweeper, and allocator emit phase spans,
	// pauses, buffer carve/retire events, and assertion violations into a
	// fixed-size ring (and, when Telemetry.Sink is set, an NDJSON stream).
	// Snapshots are available via Runtime.Metrics. nil — the default, and
	// the published configuration — compiles every emit point down to one
	// predictable nil-check branch.
	Telemetry *telemetry.Config

	// gcTrigger and assistSlack override the scheduler's geometry (the
	// used-words fraction that opens a cycle, and the mid-cycle growth cap
	// as a fraction of the trigger threshold); 0 keeps the defaults. Only
	// this package's tests set them, to cover geometries other than the
	// default.
	gcTrigger, assistSlack float64
}

// Runtime is a managed heap plus its collector and assertion engine.
//
// Lock order (outermost first): rt.mu, then a thread's buffer spinlock
// (bufMu), then the telemetry recorder's leaf mutex. rt.mu guards the heap,
// the roots, the collector, the assertion engine and the pacer; every
// collection, heap walk and registration runs under it. Per-access, per-frame
// and per-allocation paths take it only once the runtime has more than one
// mutator (see mutators).
type Runtime struct {
	mu sync.Mutex

	// unlockMu is rt.mu.Unlock (in the gctorture build, a torture point and
	// then the unlock), bound once so lockMu allocates no closure.
	unlockMu func()

	heap      *vmheap.Heap
	reg       *classes.Registry
	threads   *threads.Set
	globals   *roots.Table
	engine    *assertions.Engine // nil in Base mode
	collector *gc.MarkSweep
	mode      Mode

	rootSrc roots.Multi

	recorder *report.Recorder
	tele     *telemetry.Recorder // nil unless Config.Telemetry was set
	main     *Thread

	// Allocation-buffer mode (Config.AllocBuffers). allocBufWords is the
	// per-thread buffer size in words (0 = direct allocation); allThreads
	// lists every Thread so flushAllocBuffers can retire all outstanding
	// buffers.
	allocBufWords uint32
	allThreads    []*Thread

	// pacer is the cycle scheduler of a runtime with incremental full
	// collections (Config.IncrementalBudget > 0; concurrent.go) and the sole
	// owner of "a cycle is open"; nil on a stop-the-world runtime — the field
	// is immutable after New, so the nil check needs no lock.
	pacer *gcPacer

	torture tortureState // poison tables of the gctorture build (torture.go)

	// mutators is the one predicate behind every lock elision: oneMutator
	// from New until NewThread first runs (never, under ConcurrentGC — the
	// pacer is a second goroutine), manyMutators forever after.
	//
	// The contract while it reads oneMutator: every Runtime, Thread, Frame
	// and Global method is called from one goroutine at a time. With no
	// other thread, every other thread is vacuously at a safepoint, so the
	// paths that lock only to exclude another mutator take no lock: field,
	// array and string accessors and ClassOf, frames, globals and the
	// allocation slow path (lockMu), and the bump path's spinlock. Checks,
	// barriers and collections run exactly as if the lock were held.
	// Whole-heap entry points (GC, Stats, assertion registration, heap walks)
	// and the pacer goroutine keep taking rt.mu: those synchronise with each
	// other.
	//
	// Happens-before: NewThread stores the new value under rt.mu before the
	// new Thread exists, and a Thread is handed to the goroutine that will
	// drive it only after its creator made it (create, then start, as
	// documented on NewThread), so the hand-over orders every pre-flip
	// unlocked access before every post-flip locked one.
	//
	// A runtime built under SetDebugChecks starts at oneMutatorChecked: the
	// elided paths then TryLock rt.mu and panic with errSoloContract if a
	// second goroutine is inside. The fast path pays nothing for that — the
	// same load, compared against the same zero.
	mutators atomic.Uint32
}

// Values of Runtime.mutators.
const (
	oneMutator        uint32 = iota // no lock on the elided paths
	oneMutatorChecked               // the same contract, verified by TryLock
	manyMutators                    // every path locks rt.mu
)

// share leaves the single-mutator regime for good. sharedRegime is
// manyMutators, except in the gctorture build (torture.go).
func (rt *Runtime) share() { rt.mutators.Store(sharedRegime) }

// errSoloContract is the panic value of the single-mutator contract check.
const errSoloContract = "core: concurrent use of a single-mutator runtime (a second goroutine must be given a Thread from NewThread first)"

// solo reports whether the elided paths may skip their locks.
func (rt *Runtime) solo() bool { return rt.mutators.Load() == oneMutator }

// rootSource returns the aggregated root set (globals plus thread stacks).
func (rt *Runtime) rootSource() roots.Source { return rt.rootSrc }

// lockMu is the lock prologue of the paths the single-mutator regime elides —
// a site reads `if !rt.solo() { defer rt.lockMu()() }`: a plain Lock once
// shared, the contract check while checked. It returns the unlock, built once
// at New. (The accessors in fields.go take rt.mu inline when it is the whole
// answer.)
func (rt *Runtime) lockMu() func() {
	if rt.mutators.Load() == oneMutatorChecked {
		rt.assertSolo()
	} else {
		rt.mu.Lock()
	}
	return rt.unlockMu
}

// assertSolo is the contract check (Runtime.mutators): the caller is alone
// in the runtime exactly when rt.mu is free. On success rt.mu is held.
func (rt *Runtime) assertSolo() {
	if !rt.mu.TryLock() {
		panic(errSoloContract)
	}
}

// New creates a runtime with the given configuration.
func New(cfg Config) *Runtime {
	if cfg.IncrementalBudget < 0 {
		panic("core: IncrementalBudget must not be negative")
	}
	if cfg.ConcurrentGC {
		if cfg.Mode != Infrastructure {
			panic("core: ConcurrentGC requires Infrastructure mode")
		}
		if cfg.IncrementalBudget == 0 {
			cfg.IncrementalBudget = defaultConcurrentBudget
		}
	}
	if cfg.IncrementalBudget > 0 && cfg.Mode != Infrastructure {
		panic("core: IncrementalBudget requires Infrastructure mode")
	}
	if cfg.AllocBuffers < 0 {
		panic("core: AllocBuffers must not be negative")
	}
	if cfg.AllocBuffers > 0 && cfg.AllocBuffers < vmheap.MinBufferWords {
		panic(fmt.Sprintf("core: AllocBuffers %d below minimum %d (use 0 for direct allocation)", cfg.AllocBuffers, vmheap.MinBufferWords))
	}
	if cfg.AllocBuffers >= cfg.HeapWords {
		panic(fmt.Sprintf("core: AllocBuffers %d must be smaller than the heap (%d words)", cfg.AllocBuffers, cfg.HeapWords))
	}
	rt := &Runtime{
		reg:      classes.NewRegistry(),
		threads:  threads.NewSet(),
		globals:  roots.NewTable(),
		mode:     cfg.Mode,
		recorder: &report.Recorder{},
	}
	rt.unlockMu = rt.unlocker()
	rt.heap = vmheap.New(cfg.HeapWords)
	rt.rootSrc = roots.Multi{rt.globals, rt.threads}

	if cfg.Telemetry != nil {
		rt.tele = telemetry.New(*cfg.Telemetry)
	}

	if cfg.Mode == Infrastructure {
		handlers := report.Tee{rt.recorder}
		if rt.tele != nil {
			handlers = append(handlers, teleHandler{rt.tele})
		}
		if cfg.Handler != nil {
			handlers = append(handlers, cfg.Handler)
		}
		handler := report.Handler(handlers)
		if len(handlers) == 1 {
			handler = rt.recorder
		}
		rt.engine = assertions.New(rt.heap, rt.reg, rt.threads, handler)
	}

	rt.collector = gc.NewMarkSweep(rt.heap, rt.reg, rt.rootSrc, cfg.Mode, rt.engine)
	rt.collector.IncrementalBudget = cfg.IncrementalBudget
	rt.heap.SetTelemetry(rt.tele)
	rt.collector.SetTelemetry(rt.tele)
	rt.allocBufWords = uint32(cfg.AllocBuffers)
	if vmheap.DebugChecks {
		rt.mutators.Store(oneMutatorChecked)
	}

	rt.main = &Thread{rt: rt, th: rt.threads.New("main")}
	rt.allThreads = append(rt.allThreads, rt.main)

	if cfg.IncrementalBudget > 0 {
		rt.pacer = newPacer(rt, cfg.gcTrigger, cfg.assistSlack)
	}
	if cfg.ConcurrentGC {
		// The pacer goroutine is a second accessor of the heap, the roots and
		// every allocation buffer: the lock elision is never sound here.
		rt.share()
		rt.pacer.startBackground()
	}
	return rt
}

// flushAllocBuffers retires every thread's allocation buffer, making the
// heap linearly parseable and its counters exact. Called before every
// collection, heap walk, and verification. A cheap no-op when buffers are
// disabled or none are active. Caller holds rt.mu.
func (rt *Runtime) flushAllocBuffers() {
	if rt.allocBufWords == 0 {
		return
	}
	for _, t := range rt.allThreads {
		t.flushBuffer()
	}
}

// DefineClass registers a new class with the given fields.
func (rt *Runtime) DefineClass(name string, fields ...Field) *Class {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.reg.MustDefine(name, nil, fields...)
}

// DefineSubclass registers a class extending super; inherited fields keep
// their offsets.
func (rt *Runtime) DefineSubclass(name string, super *Class, fields ...Field) *Class {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.reg.MustDefine(name, super, fields...)
}

// ClassOf returns the class of the object at r.
func (rt *Runtime) ClassOf(r Ref) *Class {
	if !rt.solo() {
		defer rt.lockMu()()
	}
	if torture {
		rt.checkPoison(r)
	}
	return rt.reg.ByID(rt.heap.ClassID(r))
}

// MainThread returns the runtime's initial thread.
func (rt *Runtime) MainThread() *Thread { return rt.main }

// NewThread creates an additional mutator thread. Like a managed
// language's Thread constructor, it must be called by a goroutine already
// running mutator code (typically the main one) *before* the new Thread is
// handed to the goroutine that will drive it — create, then start. The
// first call permanently switches every per-access, per-frame and
// per-allocation path from its single-mutator lock-elided form to the locked
// one (see Runtime.mutators).
func (rt *Runtime) NewThread(name string) *Thread {
	defer rt.lockMu()()
	rt.share()
	t := &Thread{rt: rt, th: rt.threads.New(name)}
	rt.allThreads = append(rt.allThreads, t)
	return t
}

// Global is a named static root.
type Global struct {
	rt *Runtime
	g  *roots.Global
}

// AddGlobal creates a named global root slot.
func (rt *Runtime) AddGlobal(name string) *Global {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return &Global{rt: rt, g: rt.globals.Add(name)}
}

// Get returns the reference held by the global.
func (g *Global) Get() Ref {
	if !g.rt.solo() {
		defer g.rt.lockMu()()
	}
	return g.g.Get()
}

// Set stores a reference into the global.
func (g *Global) Set(r Ref) {
	if !g.rt.solo() {
		defer g.rt.lockMu()()
	}
	g.g.Set(r)
}

// GC forces a full-heap collection. It completes an open cycle through the
// scheduler first (its snapshot predates the call, so it cannot stand in for
// the collection being asked for) and retires every buffer, so every frame
// slot a bump allocation wrote is visible to the root scan. It returns a
// *report.HaltError if a violation handler requested Halt.
func (rt *Runtime) GC() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.settleCycleLocked(); err != nil {
		return err
	}
	rt.flushAllocBuffers()
	return rt.collector.CollectFull()
}

// StartGC opens an incremental full collection by hand: the snapshot root
// scan (and any ownership pre-phase) runs in one pause, and marking then
// proceeds in bounded slices — assists from the allocation slow path, the
// background goroutine under ConcurrentGC, plus any GCStep calls — until
// FinishGC (or any forced collection) completes the cycle. With
// IncrementalBudget == 0 it is GC: one stop-the-world full collection. A
// no-op if a cycle is already open.
func (rt *Runtime) StartGC() error {
	if rt.pacer == nil {
		return rt.GC()
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.takePacerPending(); err != nil {
		return err
	}
	rt.pacer.openLocked()
	return nil
}

// GCStep runs one bounded mark slice of an open incremental cycle,
// completing the cycle (sweep and all end-of-cycle checks included) when
// marking finishes. It reports whether the cycle is complete; with no open
// cycle it reports true immediately.
func (rt *Runtime) GCStep() (done bool, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.cycleOpen() && !rt.pacer.stepLocked() {
		return false, nil
	}
	return true, rt.takePacerPending()
}

// FinishGC drives any open incremental cycle to completion and returns its
// result (a *report.HaltError if a violation handler requested Halt —
// including one stashed from a cycle that completed with no caller to
// receive it). With no cycle open and nothing stashed it returns nil. Like
// every explicit collection entry point it leaves no allocation buffer
// outstanding.
func (rt *Runtime) FinishGC() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	err := rt.settleCycleLocked()
	rt.flushAllocBuffers()
	return err
}

// GCActive reports whether an incremental collection cycle is in flight.
func (rt *Runtime) GCActive() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.cycleOpen()
}

// Violations returns the assertion violations recorded so far.
func (rt *Runtime) Violations() []*report.Violation {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*report.Violation, len(rt.recorder.Violations))
	copy(out, rt.recorder.Violations)
	return out
}

// ResetViolations clears the recorded violations.
func (rt *Runtime) ResetViolations() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.recorder.Reset()
}

// Mode returns the runtime's collector configuration.
func (rt *Runtime) Mode() Mode { return rt.mode }
