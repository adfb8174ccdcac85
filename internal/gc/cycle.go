package gc

import (
	"math"
	"time"

	"repro/internal/assertions"
	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// MarkSweep is the full-heap mark-sweep collector the paper evaluates. The
// runtime drives it; it never decides when a collection happens. A
// collection runs stop-the-world (CollectFull), or as the same cycle split
// into a snapshot pause (root scan plus any ownership pre-phase), bounded
// mark slices interleaved with mutator work, and a completion pause
// (terminal drain, instance-limit checks, sweep). While a cycle is open the
// runtime calls SnapshotBarrier before every reference store and DidAllocate
// after every allocation taken directly from the free lists; the
// snapshot-at-beginning barrier (trace.Tracer.SnapshotObject) keeps the
// checks observing the snapshot heap. DESIGN.md §7 gives the soundness
// argument per assertion kind.
type MarkSweep struct {
	heap   *vmheap.Heap
	tracer *trace.Tracer
	engine *assertions.Engine // nil in Base mode
	mode   Mode

	// roots returns the root set as slot spans, asked for at every root scan
	// (the runtime's globals, then each thread's stack); the Force action
	// nulls a span entry in place.
	roots func() [][]vmheap.Ref
	stats Stats

	// IncrementalBudget is the mark-slice size, in objects, of an incremental
	// full collection (StartFull / StepMark / FinishFull). 0 (the default)
	// means the runtime only ever calls CollectFull: the paper's
	// stop-the-world collections.
	IncrementalBudget int

	// active reports an incremental cycle in flight. When one opens, advances
	// and completes is the runtime's decision (core's pacer); the cycle only
	// carries out the transitions.
	active bool

	// tele, when non-nil, receives cycle/pause events (the tracer and heap
	// carry their own references for the phase spans).
	tele *telemetry.Recorder
}

// NewMarkSweep creates the collector over the root spans roots returns.
// engine must be nil exactly when mode is Base.
func NewMarkSweep(h *vmheap.Heap, reg *classes.Registry, roots func() [][]vmheap.Ref, mode Mode, engine *assertions.Engine) *MarkSweep {
	if (mode == Base) != (engine == nil) {
		panic("gc: engine presence must match mode")
	}
	return &MarkSweep{heap: h, tracer: trace.New(h, reg), engine: engine, roots: roots, mode: mode}
}

// Stats returns the collector's running totals.
func (c *MarkSweep) Stats() *Stats { return &c.stats }

// SetTelemetry attaches a telemetry recorder to the collector and its
// tracer; nil (the default) disables all emission.
func (c *MarkSweep) SetTelemetry(rec *telemetry.Recorder) {
	c.tele = rec
	c.tracer.SetTelemetry(rec)
}

// IncrementalActive reports an open incremental cycle.
func (c *MarkSweep) IncrementalActive() bool { return c.active }

// CycleMarked returns the number of objects marked so far by the current
// (or, after it finishes, most recent) trace. The pacer's assist schedule is
// proportional in this figure.
func (c *MarkSweep) CycleMarked() uint64 { return c.tracer.Stats().Visited }

// armChecks opens the assertion cycle of an Infrastructure collection and
// runs the ownership pre-phase if any ownership assertion is registered. The
// pre-phase scan order is part of the assertion semantics, so it always runs
// in one piece before the root scan.
func (c *MarkSweep) armChecks() {
	c.engine.BeginCycle()
	c.tracer.SetChecks(c.engine.Checks())
	if ph := c.engine.OwnershipPhase(); ph != nil {
		c.tracer.RunOwnershipPhase(ph)
	}
}

// preSweep runs the end-of-mark assertion work of an Infrastructure
// collection — instance limits, table purges — and returns the header flags
// the sweep must clear on survivors.
func (c *MarkSweep) preSweep() (clear uint64) {
	if c.mode != Infrastructure {
		return 0
	}
	c.engine.CheckInstanceLimits()
	c.engine.PreSweep()
	return c.engine.SweepFlags()
}

// foldFull adds one completed full cycle's trace and sweep to the totals.
func (c *MarkSweep) foldFull(ts trace.Stats, sw vmheap.SweepStats) {
	s := &c.stats
	s.Collections++
	s.MarkedObjects += ts.Visited
	s.FreedObjects += sw.FreedObjects
	s.FreedWords += sw.FreedWords
	s.addTrace(ts)
}

// halted surfaces the violation whose handler requested Halt during the
// cycle just completed, if any.
func (c *MarkSweep) halted() error {
	if c.mode == Infrastructure {
		if v := c.engine.Halted(); v != nil {
			return &report.HaltError{Violation: v}
		}
	}
	return nil
}

// CollectFull performs one stop-the-world full collection and returns a
// *report.HaltError if a handler asked for one. The caller has completed any
// in-flight incremental cycle first.
func (c *MarkSweep) CollectFull() error {
	if c.active {
		panic("gc: CollectFull with an incremental cycle in flight")
	}
	c.heap.AssertNoBuffers("full collection")
	c.tele.CycleBegin()
	start := time.Now()
	t := c.tracer
	t.Reset()
	if c.mode == Infrastructure {
		c.armChecks()
		t.TraceInfra(c.roots())
	} else {
		t.TraceBase(c.roots())
	}
	clear := c.preSweep()
	sw := c.heap.Sweep(vmheap.SweepOptions{ClearFlags: clear})

	elapsed := time.Since(start)
	c.tele.Pause(elapsed)
	c.stats.addPause(elapsed)
	c.foldFull(t.Stats(), sw)
	return c.halted()
}

// StartFull opens an incremental cycle: one pause covering the tracer
// reset, the assertion cycle setup, any ownership pre-phase, and the
// snapshot root scan. A no-op when a cycle is already active.
func (c *MarkSweep) StartFull() {
	if c.active {
		return
	}
	// The cycle ends in a full-heap sweep and the snapshot trace reads
	// headers arena-wide; allocation buffers must all have been retired.
	c.heap.AssertNoBuffers("incremental cycle start")
	c.tele.CycleBegin()
	begin := time.Now()
	t := c.tracer
	t.Reset()
	t.BeginIncremental()
	if c.mode == Infrastructure {
		c.armChecks()
	}
	t.StartIncremental(c.roots())
	c.active = true
	c.endSlice(telemetry.PhaseIncRoots, begin)
}

// endSlice charges one incremental stop-the-world interval, begun at begin,
// to the telemetry stream and the pause accounting.
func (c *MarkSweep) endSlice(ph telemetry.Phase, begin time.Time) {
	d := time.Since(begin)
	c.tele.Span(ph, d)
	c.tele.Pause(d)
	c.stats.addPause(d)
}

// StepMark runs one bounded mark slice of an open cycle without completing
// the cycle when the worklist drains — it reports the drain and leaves
// completion to the caller, which must first retire every allocation buffer
// (the sweep walks the arena). With no cycle active it reports true.
func (c *MarkSweep) StepMark() bool {
	if !c.active {
		return true
	}
	begin := time.Now()
	done := c.tracer.IncrementalSlice(c.IncrementalBudget)
	c.stats.MarkSlices++
	c.endSlice(telemetry.PhaseIncSlice, begin)
	return done
}

// FinishFull drives an active cycle to completion in one pause — terminal
// drain of the worklist (snapshot-at-beginning needs no root rescan: every
// reference the mutator can still hold is marked or will be popped from the
// worklist), instance-limit checks, table purges, and the sweep — and
// returns a *report.HaltError if a handler asked for one. A no-op with no
// cycle open.
func (c *MarkSweep) FinishFull() error {
	if !c.active {
		return nil
	}
	begin := time.Now()
	t := c.tracer
	t.IncrementalSlice(math.MaxInt)

	clear := c.preSweep()
	sw := c.heap.Sweep(vmheap.SweepOptions{ClearFlags: clear | vmheap.FlagScanned})
	t.EndIncremental()
	c.active = false

	c.stats.IncrementalCycles++
	c.foldFull(t.Stats(), sw)
	c.endSlice(telemetry.PhaseIncFinish, begin)
	return c.halted()
}

// SnapshotBarrier is the snapshot-at-beginning barrier: it scans obj's
// snapshot references on its first mutator write during an active cycle (a
// no-op otherwise, and for objects already scanned). The tests
// SnapshotObject would fail on come first, so that only a store that scans
// reads the clock: most stores of an open cycle hit a scanned object.
func (c *MarkSweep) SnapshotBarrier(obj vmheap.Ref) {
	if !c.active || obj == vmheap.Nil || c.heap.Flags(obj, vmheap.FlagScanned) != 0 {
		return
	}
	begin := time.Now()
	refs, _ := c.tracer.SnapshotObject(obj)
	c.stats.BarrierScans++
	c.stats.BarrierRefs += refs
	c.endSlice(telemetry.PhaseIncBarrier, begin)
}

// DidAllocate makes an object allocated directly from the free lists while
// a cycle is in flight born black — no snapshot reference can reach it, and
// its slots hold nothing to scan.
func (c *MarkSweep) DidAllocate(r vmheap.Ref) {
	if c.active {
		c.heap.SetFlags(r, vmheap.FlagMark|vmheap.FlagScanned)
	}
}
