package gc

import (
	"time"

	"repro/internal/assertions"
	"repro/internal/classes"
	"repro/internal/roots"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// Generational is a two-generation, non-moving mark-sweep collector.
// Objects are born immature; a minor collection traces only the immature
// population (from the roots plus a remembered set) and promotes survivors
// in place by setting the mature header bit. A major collection is a full
// MarkSweep cycle over both generations.
//
// Assertions are checked only at major collections. The paper calls this
// out as the cost of using a generational collector: "A generational
// collector, however, performs full-heap collections infrequently, allowing
// some assertions to go unchecked for long periods of time." The
// BenchmarkAblationGenerational bench quantifies that detection latency.
type Generational struct {
	// fullCycle is the major collection: MarkSweep's full cycle, ending in
	// majorSweep. With IncrementalBudget > 0 majors are incremental; minor
	// collections never run while one is in flight — a minor sweep would
	// recycle addresses the major's snapshot still references.
	fullCycle

	// remembered holds mature objects that may reference immature ones;
	// FlagRemember on the object dedupes insertions.
	remembered []vmheap.Ref

	// MajorEvery forces a major collection after this many consecutive
	// minors (default 4).
	MajorEvery int
	// MinorFloor: when a minor collection frees less than this fraction
	// of the heap, the next collection is major (default 0.10).
	MinorFloor float64

	minorsSinceMajor int
}

// NewGenerational creates the collector. engine must be nil exactly when
// mode is Base.
func NewGenerational(h *vmheap.Heap, reg *classes.Registry, src roots.Source, mode Mode, engine *assertions.Engine) *Generational {
	c := &Generational{
		fullCycle:  newFullCycle(h, trace.New(h, reg), src, mode, engine),
		MajorEvery: 4,
		MinorFloor: 0.10,
	}
	c.sweep = c.majorSweep
	return c
}

// Name implements Collector.
func (c *Generational) Name() string { return "Generational" }

// WriteBarrier records a mature object into the remembered set the first
// time a reference is stored into it. Object-granularity remembering is
// conservative (the object may point only at mature children) but sound.
func (c *Generational) WriteBarrier(parent vmheap.Ref) {
	if parent == vmheap.Nil {
		return
	}
	h := c.heap.Header(parent)
	if h&vmheap.FlagRemember != 0 || h&vmheap.FlagMature == 0 {
		return
	}
	c.heap.SetFlags(parent, vmheap.FlagRemember)
	c.remembered = append(c.remembered, parent)
}

// majorSweep is the completion sweep of a major collection: every survivor
// is promoted in place, after which no mature-to-immature edge remains, so
// the remembered set is dropped.
func (c *Generational) majorSweep(o vmheap.SweepOptions) vmheap.SweepStats {
	c.dropRememberedSet()
	o.SetFlags = vmheap.FlagMature
	sw := c.heap.Sweep(o)
	c.minorsSinceMajor = 0
	return sw
}

// Collect implements Collector: minor by default, escalating to major per
// policy. Never with a major incremental cycle in flight: a minor sweep would
// recycle addresses the snapshot still references.
func (c *Generational) Collect() error {
	if c.active {
		panic("gc: Collect with an incremental cycle in flight")
	}
	if c.minorsSinceMajor >= c.MajorEvery {
		return c.CollectFull()
	}
	freedBefore := c.stats.FreedWords
	if err := c.collectMinor(); err != nil {
		return err
	}
	freed := c.stats.FreedWords - freedBefore
	if float64(freed) < c.MinorFloor*float64(c.heap.CapacityWords()) {
		return c.CollectFull()
	}
	return nil
}

// collectMinor traces and sweeps the immature generation only. No
// assertion checks run.
func (c *Generational) collectMinor() error {
	c.heap.AssertNoBuffers("minor collection")
	c.prep() // the minor sweep reclaims unpinned nursery objects too
	c.tele.CycleBegin()
	start := time.Now()
	c.tracer.Reset()
	c.tracer.TraceMinor(c.roots, c.remembered)

	// Even though minor collections check nothing, the engine's tables
	// must not keep references to reclaimed nursery objects.
	if c.engine != nil {
		c.engine.PreSweep(func(r vmheap.Ref) bool {
			return c.heap.Flags(r, vmheap.FlagMark|vmheap.FlagMature) != 0
		})
	}

	c.dropRememberedSet()
	sw := c.heap.Sweep(vmheap.SweepOptions{
		Immature: true,
		SetFlags: vmheap.FlagMature, // promote survivors in place
	})

	elapsed := time.Since(start)
	c.tele.Pause(elapsed)
	ts := c.tracer.Stats()
	c.stats.Collections++
	c.stats.MinorCollections++
	c.stats.GCTime += elapsed
	c.stats.addPause(elapsed)
	c.stats.MarkedObjects += ts.Visited
	c.stats.FreedObjects += sw.FreedObjects
	c.stats.FreedWords += sw.FreedWords
	c.stats.LastLiveWords = sw.LiveWords
	c.stats.addTrace(ts)
	c.minorsSinceMajor++
	return nil
}

// dropRememberedSet clears the remembered set: after any collection every
// survivor is mature, so no mature-to-immature edges remain. It must run
// before the sweep, while every entry still points at a valid header.
func (c *Generational) dropRememberedSet() {
	for _, r := range c.remembered {
		c.heap.ClearFlags(r, vmheap.FlagRemember)
	}
	c.remembered = c.remembered[:0]
}
