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

// Incremental full collections: the cycle the stop-the-world CollectFull
// runs in one pause is split into a snapshot pause (root scan plus any
// ownership pre-phase), bounded mark slices interleaved with mutator work,
// and a completion pause (terminal drain, instance-limit checks, sweep).
// The snapshot-at-beginning write barrier (trace.Tracer.SnapshotObject,
// called via Collector.SnapshotBarrier from every reference store) keeps
// the checks observing the snapshot heap; DESIGN.md §8 gives the soundness
// argument per assertion kind. Both collectors share this driver; only the
// completion sweep differs.

// incTriggerFraction: an allocation that leaves less than this fraction of
// the heap free starts an incremental cycle, so collection work is paid as
// an allocation tax before the heap exhausts and forces a long pause.
const incTriggerFraction = 0.25

// incCycle is the in-flight incremental collection state.
type incCycle struct {
	active bool
	// pending holds a HaltError from a cycle that completed inside the
	// allocation tax, where no caller could receive it; the next collector
	// entry point surfaces it.
	pending error
}

// incShared bundles the collector pieces the shared driver works on.
// finishSweep runs the collector-specific sweep of a completed cycle (the
// generational collector promotes survivors and drops its remembered set).
type incShared struct {
	// prepare, when non-nil, runs before the snapshot root scan and before
	// the completion sweep (Collector.SetPrepareRoots).
	prepare     func()
	heap        *vmheap.Heap
	tracer      *trace.Tracer
	engine      *assertions.Engine // nil in Base mode
	roots       roots.Source
	mode        Mode
	stats       *Stats
	st          *incCycle
	budget      int
	concurrent  bool
	tele        *telemetry.Recorder
	finishSweep func(clear uint64) vmheap.SweepStats
}

// takePending consumes a stashed completion error.
func (p incShared) takePending() error {
	err := p.st.pending
	p.st.pending = nil
	return err
}

// start begins a cycle: one pause covering the tracer reset, the assertion
// cycle setup, any ownership pre-phase, and the snapshot root scan. A no-op
// when a cycle is already active.
func (p incShared) start() {
	if p.st.active {
		return
	}
	// The cycle ends in a full-heap sweep and the snapshot trace reads
	// headers arena-wide; allocation buffers must all have been retired.
	p.heap.AssertNoBuffers("incremental cycle start")
	if p.prepare != nil {
		// Gather hidden-register pins into the root set before the
		// snapshot scan; with every buffer retired, no thread can slip an
		// unpinned allocation in before the scan (allocation now needs
		// the runtime lock this pause holds).
		p.prepare()
	}
	p.tele.CycleBegin()
	begin := time.Now()
	// A lazy sweep pending from the previous cycle must finish before the
	// snapshot is taken: its unswept ranges carry stale mark bits.
	p.heap.CompleteSweep()
	t := p.tracer
	t.Reset()
	t.BeginIncremental()
	if p.mode == Infrastructure {
		p.engine.BeginCycle()
		t.SetChecks(p.engine.Checks())
		if ph := p.engine.OwnershipPhase(); ph != nil {
			t.RunOwnershipPhase(ph)
		}
	}
	t.StartIncremental(p.roots)
	p.st.active = true
	d := time.Since(begin)
	p.tele.Span(telemetry.PhaseIncRoots, d)
	p.tele.Pause(d)
	p.stats.addIncrementalWork(d)
}

// step runs one bounded mark slice, completing the cycle when the worklist
// drains. With no cycle active it reports done immediately (surfacing any
// stashed error first).
func (p incShared) step() (bool, error) {
	if err := p.takePending(); err != nil {
		return true, err
	}
	if !p.st.active {
		return true, nil
	}
	begin := time.Now()
	done := p.tracer.IncrementalSlice(p.budget)
	p.stats.MarkSlices++
	d := time.Since(begin)
	p.tele.Span(telemetry.PhaseIncSlice, d)
	p.tele.Pause(d)
	p.stats.addIncrementalWork(d)
	if done {
		return true, p.finish()
	}
	return false, nil
}

// stepMark runs one bounded mark slice without completing the cycle when
// the worklist drains: it reports the drain and leaves completion to the
// caller, which must first retire every allocation buffer (the sweep walks
// the arena). With no cycle active it reports true immediately.
func (p incShared) stepMark() bool {
	if !p.st.active {
		return true
	}
	begin := time.Now()
	done := p.tracer.IncrementalSlice(p.budget)
	p.stats.MarkSlices++
	d := time.Since(begin)
	p.tele.Span(telemetry.PhaseIncSlice, d)
	p.tele.Pause(d)
	p.stats.addIncrementalWork(d)
	return done
}

// finish drives an active cycle to completion in one pause: terminal drain
// of the worklist (snapshot-at-beginning needs no root rescan — every
// reference the mutator can still hold is marked or will be popped from the
// worklist), instance-limit checks, table purges, and the sweep.
func (p incShared) finish() error {
	if err := p.takePending(); err != nil {
		return err
	}
	if !p.st.active {
		return nil
	}
	begin := time.Now()
	t := p.tracer
	t.IncrementalSlice(math.MaxInt)

	if p.prepare != nil {
		// Re-certify pins before the sweep advances the epoch: objects
		// allocated during this cycle are black (allocate-black) and will
		// survive, but their pin stamps date from the pre-sweep epoch —
		// without this refresh the NEXT cycle would not protect the ones
		// still unpublished.
		p.prepare()
	}

	var sweepClear uint64
	if p.mode == Infrastructure {
		p.engine.CheckInstanceLimits()
		p.engine.PreSweep(func(r vmheap.Ref) bool {
			return p.heap.Flags(r, vmheap.FlagMark) != 0
		})
		sweepClear = p.engine.SweepFlags()
	}
	sw := p.stats.timedSweep(0, func() vmheap.SweepStats {
		return p.finishSweep(sweepClear | vmheap.FlagScanned)
	})
	t.EndIncremental()
	p.st.active = false

	ts := t.Stats()
	s := p.stats
	s.Collections++
	s.FullCollections++
	s.IncrementalCycles++
	s.MarkedObjects += ts.Visited
	s.FreedObjects += sw.FreedObjects
	s.FreedWords += sw.FreedWords
	s.LastLiveWords = sw.LiveWords
	s.addTrace(ts)
	d := time.Since(begin)
	p.tele.Span(telemetry.PhaseIncFinish, d)
	p.tele.Pause(d)
	s.addIncrementalWork(d)

	if p.mode == Infrastructure {
		if v := p.engine.Halted(); v != nil {
			return &report.HaltError{Violation: v}
		}
	}
	return nil
}

// snapshotBarrier scans obj's snapshot references on its first mutator
// write during an active cycle (a no-op otherwise, and for objects already
// scanned).
func (p incShared) snapshotBarrier(obj vmheap.Ref) {
	begin := time.Now()
	refs, scanned := p.tracer.SnapshotObject(obj)
	if !scanned {
		return
	}
	p.stats.BarrierScans++
	p.stats.BarrierRefs += refs
	d := time.Since(begin)
	p.tele.Span(telemetry.PhaseIncBarrier, d)
	p.tele.Pause(d)
	p.stats.addIncrementalWork(d)
}

// didAllocate is the per-allocation hook: start a cycle when free space
// runs low, mark the fresh object black (no snapshot reference can reach
// it, and its slots hold nothing to scan), and pay one mark slice as an
// allocation tax. A HaltError from a tax-completed cycle is stashed for the
// next entry point — the allocation itself already succeeded.
func (p incShared) didAllocate(r vmheap.Ref) {
	if p.concurrent {
		// The background pacer owns cycle starts and the allocation tax
		// (levied as assists at buffer-refill boundaries); this hook only
		// keeps mid-cycle direct allocations black.
		if p.st.active {
			p.heap.SetFlags(r, vmheap.FlagMark|vmheap.FlagScanned)
		}
		return
	}
	if !p.st.active {
		if float64(p.heap.FreeWords()) >= incTriggerFraction*float64(p.heap.CapacityWords()) {
			return
		}
		p.start()
	}
	p.heap.SetFlags(r, vmheap.FlagMark|vmheap.FlagScanned)
	if _, err := p.step(); err != nil {
		p.st.pending = err
	}
}

// didRefill is the buffer-refill trigger: the batched equivalent of
// didAllocate's free-space check, paid once per allocation buffer instead
// of once per object. There is no object to blacken and no tax slice here
// — while a cycle is active the runtime routes allocation to the direct
// path, whose didAllocate pays both.
func (p incShared) didRefill() {
	if p.concurrent {
		// Trigger decisions belong to the pacer's heap-growth check.
		return
	}
	if p.st.active {
		return
	}
	if float64(p.heap.FreeWords()) >= incTriggerFraction*float64(p.heap.CapacityWords()) {
		return
	}
	p.start()
}
