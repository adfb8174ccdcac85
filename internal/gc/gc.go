// Package gc implements the collector of the gcassert runtime: MarkSweep,
// the paper's full-heap free-list mark-sweep collector. In Base mode it runs
// the unmodified trace loop; in Infrastructure mode every collection runs the
// assertion machinery (ownership pre-phase, path-tracking root scan with
// piggybacked checks, instance-limit checks, table maintenance). A
// collection runs stop-the-world or as an incremental cycle the runtime's
// pacer drives.
package gc

import (
	"time"

	"repro/internal/trace"
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
	Collections uint64        // completed full-heap collections
	GCTime      time.Duration // total stop-the-world time

	MarkedObjects uint64 // cumulative objects marked
	MarkedWords   uint64 // cumulative words of marked objects (GC throughput numerator)
	FreedObjects  uint64
	FreedWords    uint64

	// Trace totals accumulated across collections (assertion check
	// counters live here: dead hits, ownees checked, ...).
	Trace trace.Stats

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

	// MaxPause is the longest single stop-the-world interval: a whole
	// stop-the-world collection; a cycle start, mark slice, barrier scan,
	// or completion for incremental mode. All collector work happens inside
	// pauses (incremental, not concurrent), so their sum is GCTime; the
	// incremental win shows up in MaxPause, which is bounded by the largest
	// single interval rather than the full cycle. Distributions per pause
	// and per phase are telemetry's (Recorder.Pause, Recorder.End).
	MaxPause time.Duration
}

// addPause attributes one stop-the-world interval — a whole collection, or
// one incremental pause of a cycle — to the collector time and the pause
// accounting.
func (s *Stats) addPause(d time.Duration) {
	s.GCTime += d
	if d > s.MaxPause {
		s.MaxPause = d
	}
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
