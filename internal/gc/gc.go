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
	"sync"
	"time"

	"repro/internal/assertions"
	"repro/internal/classes"
	"repro/internal/report"
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
	// ZoneCollections counts single-zone collections (BeginZone … FoldZone);
	// ZoneRetires counts Zone.Retire bulk frees. Both stay zero on an
	// unzoned runtime.
	ZoneCollections uint64
	ZoneRetires     uint64

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

// MarkSweep is the full-heap mark-sweep collector the paper evaluates. Its
// full collections are the embedded cycle with the heap's plain sweep; what it
// adds is single-zone collection of a zone-sharded heap.
type MarkSweep struct {
	fullCycle
	reg *classes.Registry

	// Zone collection keeps one private tracer per zone so two zones can mark
	// simultaneously. zmu guards only this lazily-built map (a leaf lock held
	// for map access alone, never across a trace).
	zmu         sync.Mutex
	zoneTracers map[*vmheap.Heap]*trace.Tracer
}

// NewMarkSweep creates the collector. engine must be nil exactly when mode
// is Base.
func NewMarkSweep(h *vmheap.Heap, reg *classes.Registry, src roots.Source, mode Mode, engine *assertions.Engine) *MarkSweep {
	c := &MarkSweep{fullCycle: newFullCycle(h, trace.New(h, reg), src, mode, engine), reg: reg}
	c.sweep = h.Sweep
	return c
}

// Name implements Collector.
func (c *MarkSweep) Name() string { return "MarkSweep" }

// WriteBarrier is a no-op for a non-generational collector.
func (c *MarkSweep) WriteBarrier(vmheap.Ref) {}

// Collect implements Collector: every MarkSweep collection is full-heap.
func (c *MarkSweep) Collect() error { return c.CollectFull() }

// ---------------------------------------------------------------------------
// Zone collection
//
// One collection of a single zone of a zone-sharded heap. The zone's roots
// are the runtime root set (references into other zones are inert to the
// zone-gated trace) plus the zone's inbound remembered-set slots, which the
// runtime resolves to their targets: each is a field of an object in ANOTHER
// zone that points into z, and the trace treats it exactly like a root slot —
// path-tracked, reported to the runtime for nulling on an assert-dead Force
// verdict, and one encounter for the unshared check, which is what makes
// per-zone verdicts match a whole-heap collection's slot for slot. Only z is
// swept; other zones' allocation buffers stay live. Ownership assertions do
// not reach here: the runtime escalates to a full collection while any is
// registered.
//
// The collection comes in the three pieces the runtime's per-zone locking
// needs so that several zones can be collected simultaneously, overlapped
// with mutators in third zones:
//
//	zc := c.BeginZone(z)            // zone lock + runtime lock
//	zc.Scan(targets, null)          // zone lock + runtime lock (the pause)
//	out := zc.Finish()              // zone lock only — drain and sweep
//	c.FoldZone(out)                 // runtime lock — fold stats
//
// BeginZone/Finish touch only zone-local heap state plus the engine's own
// lock (PreSweep), so concurrent calls for different zones are
// safe. Scan runs under the runtime lock: it snapshots the roots and the
// pre-resolved remembered-set targets while mutators are excluded, which is
// what makes the subsequent lock-free drain sound (every reference into the
// zone a mutator could later hand over is already grey or protected by the
// zone lock). FoldZone serializes the stats merge.

// ZoneOutcome carries one zone collection's results from the
// drain/sweep phase (zone lock only) to FoldZone (runtime lock).
type ZoneOutcome struct {
	Elapsed time.Duration
	Trace   trace.Stats
	Sweep   vmheap.SweepStats
	// Counts holds the tracer-local instance census for this zone, keyed by
	// class ID (nil when nothing was counted). The runtime sums counts
	// across a rotation and judges limits with Engine.CheckInstanceTotals.
	Counts map[uint32]int64
	// Halt is the violation that requested Halt during this collection, if
	// any (cycle-private: concurrent collections never see each other's).
	Halt *report.Violation
}

// ZoneCollection is one in-flight zone collection.
type ZoneCollection struct {
	c      *MarkSweep
	z      *vmheap.Heap
	tracer *trace.Tracer
	cyc    *assertions.Cycle
	start  time.Time
}

// zoneTracer returns the zone's private tracer, creating it on first use.
func (c *MarkSweep) zoneTracer(z *vmheap.Heap) *trace.Tracer {
	c.zmu.Lock()
	defer c.zmu.Unlock()
	t := c.zoneTracers[z]
	if t == nil {
		t = trace.New(c.heap, c.reg)
		t.SetTelemetry(c.tele)
		if c.zoneTracers == nil {
			c.zoneTracers = make(map[*vmheap.Heap]*trace.Tracer)
		}
		c.zoneTracers[z] = t
	}
	return t
}

// BeginZone starts a collection of z. The caller holds z's zone lock and
// guarantees no incremental or pacer cycle is active — the runtime's
// zone-collection ticket (see core) excludes them.
func (c *MarkSweep) BeginZone(z *vmheap.Heap) *ZoneCollection {
	if c.active {
		panic("gc: BeginZone with an incremental cycle in flight")
	}
	c.tele.CycleBegin()
	zc := &ZoneCollection{c: c, z: z, start: time.Now()}
	// Pending lazy sweep must settle in this zone before its mark bits are
	// reused; zone-local, so the zone lock suffices.
	z.ZoneCompleteSweep()
	zc.tracer = c.zoneTracer(z)
	zc.tracer.ResetZone(z)
	return zc
}

// Scan runs the collection's pause phase under the runtime lock (held by the
// caller, along with the zone lock): root scan plus the pre-resolved
// remembered-set slot scan. targets were resolved by the runtime under the
// remembered-set lock; null is invoked for every slot whose target the trace
// force-nulls, so the runtime can drop the entry.
func (zc *ZoneCollection) Scan(targets []trace.SlotTarget, null func(slot uint32)) {
	if e := zc.c.engine; e != nil {
		zc.cyc = e.NewCycle()
		zc.tracer.SetChecks(e.ChecksFor(zc.cyc))
	}
	zc.tracer.ZoneRootScan(zc.c.roots)
	zc.tracer.ZoneSlotScan(targets, null)
}

// Finish drains the mark worklist and sweeps the zone, with only the zone
// lock held: mutators in other zones run throughout. Returns the outcome for
// FoldZone.
func (zc *ZoneCollection) Finish() ZoneOutcome {
	c := zc.c
	zc.tracer.ZoneDrain()

	var sweepClear uint64
	if c.engine != nil {
		z := zc.z
		c.engine.PreSweep(func(r vmheap.Ref) bool {
			return !z.Contains(r) || c.heap.Flags(r, vmheap.FlagMark) != 0
		})
		sweepClear = c.engine.SweepFlags()
	}

	ts := zc.tracer.Stats()
	// Only this zone's tracer marks this zone's objects (other concurrent
	// tracers are gated out), so its visit counts are the zone's exact live
	// census and the walkless lazy-sweep arm stays available.
	sw := zc.z.ZoneSweep(vmheap.SweepOptions{
		ClearFlags:    sweepClear,
		MarkedKnown:   true,
		MarkedObjects: ts.Visited,
		MarkedWords:   ts.VisitedWords,
	})

	elapsed := time.Since(zc.start)
	c.tele.Pause(elapsed)
	out := ZoneOutcome{
		Elapsed: elapsed,
		Trace:   ts,
		Sweep:   sw,
		Counts:  zc.tracer.LocalCounts(),
	}
	out.Halt = zc.cyc.Halted()
	return out
}

// FoldZone merges one zone collection's outcome into the
// collector statistics. The caller holds the runtime lock. The Elapsed
// interval is charged as a pause: it is a zone-local stoppage — that zone's
// mutators stall for the duration — even though the world keeps running.
func (c *MarkSweep) FoldZone(o ZoneOutcome) {
	c.stats.Collections++
	c.stats.ZoneCollections++
	c.stats.GCTime += o.Elapsed
	c.stats.addPause(o.Elapsed)
	c.stats.MarkedObjects += o.Trace.Visited
	c.stats.FreedObjects += o.Sweep.FreedObjects
	c.stats.FreedWords += o.Sweep.FreedWords
	c.stats.addTrace(o.Trace)
}
