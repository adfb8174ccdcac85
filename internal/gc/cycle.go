package gc

import (
	"math"
	"time"

	"repro/internal/assertions"
	"repro/internal/report"
	"repro/internal/roots"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// fullCycle is the full-heap collection both collectors run, embedded in
// each: the stop-the-world CollectFull, and the same cycle split into a
// snapshot pause (root scan plus any ownership pre-phase), bounded mark
// slices interleaved with mutator work, and a completion pause (terminal
// drain, instance-limit checks, sweep). The snapshot-at-beginning write
// barrier (trace.Tracer.SnapshotObject, called via SnapshotBarrier from every
// reference store) keeps the checks observing the snapshot heap; DESIGN.md §7
// gives the soundness argument per assertion kind. The one step a collector
// supplies is the completion sweep.
type fullCycle struct {
	heap   *vmheap.Heap
	tracer *trace.Tracer
	engine *assertions.Engine // nil in Base mode
	roots  roots.Source
	mode   Mode
	stats  Stats

	// IncrementalBudget is the mark-slice size, in objects, of an incremental
	// full collection (StartFull / StepMark / FinishFull). 0 (the default)
	// means the runtime only ever calls CollectFull: the paper's
	// stop-the-world collections.
	IncrementalBudget int

	// sweep reclaims the heap at the end of a full cycle: the heap's own
	// Sweep for MarkSweep; for Generational, the sweep that also promotes
	// every survivor and drops the remembered set.
	sweep func(vmheap.SweepOptions) vmheap.SweepStats

	// active reports an incremental cycle in flight. When one opens, advances
	// and completes is the runtime's decision (core's pacer); the cycle only
	// carries out the transitions.
	active bool

	// prepareRoots, when non-nil, runs before every whole-heap root scan and
	// completion sweep (see Collector.SetPrepareRoots).
	prepareRoots func()

	// tele, when non-nil, receives cycle/pause events (the tracer and heap
	// carry their own references for the phase spans).
	tele *telemetry.Recorder
}

// newFullCycle builds the shared cycle state; the embedding collector
// installs sweep. engine must be nil exactly when mode is Base.
func newFullCycle(h *vmheap.Heap, t *trace.Tracer, src roots.Source, mode Mode, engine *assertions.Engine) fullCycle {
	if (mode == Base) != (engine == nil) {
		panic("gc: engine presence must match mode")
	}
	return fullCycle{heap: h, tracer: t, engine: engine, roots: src, mode: mode}
}

// Stats implements Collector.
func (c *fullCycle) Stats() *Stats { return &c.stats }

// SetTelemetry implements Collector.
func (c *fullCycle) SetTelemetry(rec *telemetry.Recorder) {
	c.tele = rec
	c.tracer.SetTelemetry(rec)
}

// SetPrepareRoots implements Collector.
func (c *fullCycle) SetPrepareRoots(fn func()) { c.prepareRoots = fn }

// prep runs the prepareRoots hook if one is installed.
func (c *fullCycle) prep() {
	if c.prepareRoots != nil {
		c.prepareRoots()
	}
}

// IncrementalActive implements Collector.
func (c *fullCycle) IncrementalActive() bool { return c.active }

// CycleMarked implements Collector.
func (c *fullCycle) CycleMarked() uint64 { return c.tracer.Stats().Visited }

// armChecks opens the assertion cycle of an Infrastructure collection and
// runs the ownership pre-phase if any ownership assertion is registered. The
// pre-phase scan order is part of the assertion semantics, so it always runs
// in one piece before the root scan.
func (c *fullCycle) armChecks() {
	c.engine.BeginCycle()
	c.tracer.SetChecks(c.engine.Checks())
	if ph := c.engine.OwnershipPhase(); ph != nil {
		c.tracer.RunOwnershipPhase(ph)
	}
}

// preSweep runs the end-of-mark assertion work of an Infrastructure
// collection — instance limits, table purges — and returns the header flags
// the sweep must clear on survivors.
func (c *fullCycle) preSweep() (clear uint64) {
	if c.mode != Infrastructure {
		return 0
	}
	c.engine.CheckInstanceLimits()
	c.engine.PreSweep(func(r vmheap.Ref) bool {
		return c.heap.Flags(r, vmheap.FlagMark) != 0
	})
	return c.engine.SweepFlags()
}

// foldFull adds one completed full cycle's trace and sweep to the totals.
func (c *fullCycle) foldFull(ts trace.Stats, sw vmheap.SweepStats) {
	s := &c.stats
	s.Collections++
	s.FullCollections++
	s.MarkedObjects += ts.Visited
	s.FreedObjects += sw.FreedObjects
	s.FreedWords += sw.FreedWords
	s.LastLiveWords = sw.LiveWords
	s.addTrace(ts)
}

// halted surfaces the violation whose handler requested Halt during the
// cycle just completed, if any.
func (c *fullCycle) halted() error {
	if c.mode == Infrastructure {
		if v := c.engine.Halted(); v != nil {
			return &report.HaltError{Violation: v}
		}
	}
	return nil
}

// CollectFull performs one stop-the-world full collection. The caller has
// completed any in-flight incremental cycle first.
func (c *fullCycle) CollectFull() error {
	if c.active {
		panic("gc: CollectFull with an incremental cycle in flight")
	}
	c.heap.AssertNoBuffers("full collection")
	c.prep() // root scan and sweep share this pause; one gather covers both
	c.tele.CycleBegin()
	start := time.Now()
	t := c.tracer
	t.Reset()
	if c.mode == Infrastructure {
		c.armChecks()
		t.TraceInfra(c.roots)
	} else {
		t.TraceBase(c.roots)
	}
	clear := c.preSweep()
	sw := c.sweep(vmheap.SweepOptions{ClearFlags: clear})

	elapsed := time.Since(start)
	c.tele.Pause(elapsed)
	c.stats.addFullWork(elapsed)
	c.foldFull(t.Stats(), sw)
	return c.halted()
}

// StartFull implements Collector: begin an incremental cycle — one pause
// covering the tracer reset, the assertion cycle setup, any ownership
// pre-phase, and the snapshot root scan. A no-op when a cycle is already
// active.
func (c *fullCycle) StartFull() {
	if c.active {
		return
	}
	// The cycle ends in a full-heap sweep and the snapshot trace reads
	// headers arena-wide; allocation buffers must all have been retired.
	c.heap.AssertNoBuffers("incremental cycle start")
	// Gather hidden-register pins into the root set before the snapshot
	// scan; with every buffer retired, no thread can slip an unpinned
	// allocation in before the scan (allocation now needs the runtime lock
	// this pause holds).
	c.prep()
	c.tele.CycleBegin()
	begin := time.Now()
	t := c.tracer
	t.Reset()
	t.BeginIncremental()
	if c.mode == Infrastructure {
		c.armChecks()
	}
	t.StartIncremental(c.roots)
	c.active = true
	c.endSlice(telemetry.PhaseIncRoots, begin)
}

// endSlice charges one incremental stop-the-world interval, begun at begin,
// to the telemetry stream and the pause accounting.
func (c *fullCycle) endSlice(ph telemetry.Phase, begin time.Time) {
	d := time.Since(begin)
	c.tele.Span(ph, d)
	c.tele.Pause(d)
	c.stats.addFullWork(d)
}

// StepMark implements Collector: one bounded mark slice without completing
// the cycle when the worklist drains — it reports the drain and leaves
// completion to the caller, which must first retire every allocation buffer
// (the sweep walks the arena). With no cycle active it reports true.
func (c *fullCycle) StepMark() bool {
	if !c.active {
		return true
	}
	begin := time.Now()
	done := c.tracer.IncrementalSlice(c.IncrementalBudget)
	c.stats.MarkSlices++
	c.endSlice(telemetry.PhaseIncSlice, begin)
	return done
}

// FinishFull implements Collector: drive an active cycle to completion in
// one pause — terminal drain of the worklist (snapshot-at-beginning needs no
// root rescan: every reference the mutator can still hold is marked or will
// be popped from the worklist), instance-limit checks, table purges, and the
// sweep.
func (c *fullCycle) FinishFull() error {
	if !c.active {
		return nil
	}
	begin := time.Now()
	t := c.tracer
	t.IncrementalSlice(math.MaxInt)

	// Re-certify pins before the sweep advances the epoch: objects allocated
	// during this cycle are black (allocate-black) and will survive, but
	// their pin stamps date from the pre-sweep epoch — without this refresh
	// the NEXT cycle would not protect the ones still unpublished.
	c.prep()

	clear := c.preSweep()
	sw := c.sweep(vmheap.SweepOptions{ClearFlags: clear | vmheap.FlagScanned})
	t.EndIncremental()
	c.active = false

	c.stats.IncrementalCycles++
	c.foldFull(t.Stats(), sw)
	c.endSlice(telemetry.PhaseIncFinish, begin)
	return c.halted()
}

// SnapshotBarrier implements Collector: the snapshot-at-beginning barrier
// scans obj's snapshot references on its first mutator write during an
// active cycle (a no-op otherwise, and for objects already scanned). The
// tests SnapshotObject would fail on come first, so that only a store that
// scans reads the clock: most stores of an open cycle hit a scanned object.
func (c *fullCycle) SnapshotBarrier(obj vmheap.Ref) {
	if !c.active || obj == vmheap.Nil || c.heap.Flags(obj, vmheap.FlagScanned) != 0 {
		return
	}
	begin := time.Now()
	refs, _ := c.tracer.SnapshotObject(obj)
	c.stats.BarrierScans++
	c.stats.BarrierRefs += refs
	c.endSlice(telemetry.PhaseIncBarrier, begin)
}

// DidAllocate implements Collector: an object allocated directly from the
// free lists while a cycle is in flight is born black — no snapshot reference
// can reach it, and its slots hold nothing to scan.
func (c *fullCycle) DidAllocate(r vmheap.Ref) {
	if c.active {
		c.heap.SetFlags(r, vmheap.FlagMark|vmheap.FlagScanned)
	}
}
