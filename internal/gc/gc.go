// Package gc implements the stop-the-world collectors of the gcassert
// runtime:
//
//   - MarkSweep is the paper's configuration: a full-heap free-list
//     mark-sweep collector. In Base mode it runs the unmodified trace
//     loop; in Infrastructure mode every collection runs the assertion
//     machinery (ownership pre-phase, path-tracking root scan with
//     piggybacked checks, instance-limit checks, table maintenance).
//
//   - Generational is a two-generation non-moving variant (nursery objects
//     are promoted in place via a header bit, with a write-barrier-fed
//     remembered set). It demonstrates the paper's caveat that assertions
//     are only checked at full-heap collections.
package gc

import (
	"time"

	"repro/internal/assertions"
	"repro/internal/classes"
	"repro/internal/roots"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// Mode selects the collector configuration measured in the paper.
type Mode uint8

const (
	// Base is the unmodified collector: no assertion infrastructure at
	// all. Assertions cannot be used in this mode.
	Base Mode = iota
	// Infrastructure enables the assertion machinery: path-tracking
	// trace loop and per-object checks, whether or not any assertions
	// are registered. This is the paper's "Infrastructure"
	// configuration; registering assertions on top of it yields the
	// "WithAssertions" configuration.
	Infrastructure
)

// String returns the configuration name used in the paper's figures.
func (m Mode) String() string {
	if m == Base {
		return "Base"
	}
	return "Infrastructure"
}

// Stats accumulates collector activity over a runtime's lifetime.
type Stats struct {
	Collections      uint64 // all collections
	FullCollections  uint64 // full-heap (major) collections
	MinorCollections uint64

	GCTime     time.Duration // total stop-the-world time
	FullGCTime time.Duration

	MarkedObjects uint64 // cumulative objects marked
	MarkedWords   uint64 // cumulative words of marked objects (GC throughput numerator)
	FreedObjects  uint64
	FreedWords    uint64

	// Trace totals accumulated across collections (assertion check
	// counters live here: dead hits, ownees checked, ...).
	Trace trace.Stats

	// LastLiveWords is the live heap size after the most recent
	// collection (used by the harness for heap-sizing calibration).
	LastLiveWords uint64

	// Side-structure footprint: bytes the assertion engine holds beside
	// the heap (its ownership indexes, internal/sidetab). Snapshotted from
	// the engine when the runtime builds a stats snapshot; zero in Base
	// mode.
	SideTabChunkBytes uint64

	// Incremental-mode totals; all zero when IncrementalBudget == 0.
	IncrementalCycles uint64 // full cycles completed incrementally
	MarkSlices        uint64 // bounded mark slices executed
	BarrierScans      uint64 // objects snapshot-scanned by the write barrier
	BarrierRefs       uint64 // reference slots processed by barrier scans

	// Pause accounting. Every stop-the-world interval — a whole collection
	// for the stop-the-world collectors; a cycle start, mark slice,
	// barrier scan, or completion for incremental mode — adds to PauseTime
	// and may raise MaxPause. All collector work happens inside pauses
	// (incremental, not concurrent), so PauseTime always equals GCTime;
	// the incremental win shows up in MaxPause, which is bounded by the
	// largest single interval rather than the full cycle. Distributions per
	// pause and per phase are telemetry's (Recorder.Pause, Recorder.End).
	PauseTime time.Duration
	MaxPause  time.Duration
}

// addPause records one stop-the-world interval.
func (s *Stats) addPause(d time.Duration) {
	s.PauseTime += d
	if d > s.MaxPause {
		s.MaxPause = d
	}
}

// addFullWork attributes one stop-the-world interval of a full cycle — the
// whole collection, or one incremental pause of it — to the cycle totals and
// the pause accounting.
func (s *Stats) addFullWork(d time.Duration) {
	s.GCTime += d
	s.FullGCTime += d
	s.addPause(d)
}

// addTrace folds one collection's trace counters into the totals.
func (s *Stats) addTrace(t trace.Stats) {
	s.MarkedWords += t.VisitedWords
	s.Trace.Visited += t.Visited
	s.Trace.RefsScanned += t.RefsScanned
	s.Trace.DeadHits += t.DeadHits
	s.Trace.SharedHits += t.SharedHits
	s.Trace.OwneesChecked += t.OwneesChecked
	s.Trace.ForcedRefs += t.ForcedRefs
}

// Collector is the interface the runtime drives. Collect performs whatever
// collection the policy calls for (for MarkSweep, always full); CollectFull
// forces a full-heap collection, which is the only kind that checks
// assertions. WriteBarrier must be called by the runtime on every reference
// store.
type Collector interface {
	Collect() error
	CollectFull() error
	WriteBarrier(parent vmheap.Ref)
	Stats() *Stats
	// Name identifies the collector in harness output.
	Name() string
	// SetTelemetry attaches a telemetry recorder to the collector and its
	// tracer; nil (the default) disables all emission.
	SetTelemetry(rec *telemetry.Recorder)
	// SetPrepareRoots installs a callback the collector invokes
	// immediately before every whole-heap root scan and before every
	// whole-heap completion sweep, under the same lock as the scan or
	// sweep itself. The runtime uses it to gather hidden-register pins:
	// the pre-scan call makes just-allocated, not-yet-published objects
	// roots, and the pre-sweep call re-certifies pins taken during an
	// incremental cycle before the sweep advances the heap's epoch and
	// invalidates their stamps. Nil (the default) disables the hook.
	SetPrepareRoots(fn func())

	// An incremental full collection (IncrementalBudget > 0) is three
	// transitions the runtime's scheduler drives; the collector never decides
	// when one happens. StartFull opens a cycle: the snapshot root scan, in
	// one pause. StepMark advances it by one bounded mark slice. FinishFull
	// completes it (terminal drain, end-of-cycle checks, sweep; a no-op with
	// no cycle open) and returns a *report.HaltError if a handler asked for
	// one. IncrementalActive reports an open cycle. While one is open,
	// SnapshotBarrier must be called before every reference store (the
	// snapshot-at-beginning barrier) and DidAllocate after every allocation
	// taken directly from the free lists (allocate-black). Collect and
	// CollectFull must not be called with a cycle open.
	StartFull()
	FinishFull() error
	IncrementalActive() bool
	SnapshotBarrier(obj vmheap.Ref)
	DidAllocate(r vmheap.Ref)

	// StepMark runs one bounded mark slice of an in-flight cycle WITHOUT
	// finishing it when the worklist drains — it only reports the drain:
	// mark progress is safe at any point, while completion sweeps and so
	// needs every allocation buffer retired first. With no cycle active it
	// reports true.
	StepMark() bool
	// CycleMarked returns the number of objects marked so far by the
	// current (or, after it finishes, most recent) trace. The pacer's
	// assist schedule is proportional in this figure.
	CycleMarked() uint64
}

// MarkSweep is the full-heap mark-sweep collector the paper evaluates: the
// embedded cycle with the heap's plain sweep.
type MarkSweep struct {
	fullCycle
}

// NewMarkSweep creates the collector. engine must be nil exactly when mode
// is Base.
func NewMarkSweep(h *vmheap.Heap, reg *classes.Registry, src roots.Source, mode Mode, engine *assertions.Engine) *MarkSweep {
	c := &MarkSweep{newFullCycle(h, trace.New(h, reg), src, mode, engine)}
	c.sweep = h.Sweep
	return c
}

// Name implements Collector.
func (c *MarkSweep) Name() string { return "MarkSweep" }

// WriteBarrier is a no-op for a non-generational collector.
func (c *MarkSweep) WriteBarrier(vmheap.Ref) {}

// Collect implements Collector: every MarkSweep collection is full-heap.
func (c *MarkSweep) Collect() error { return c.CollectFull() }
