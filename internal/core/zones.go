package core

import (
	"fmt"
	"sync"

	"repro/internal/gc"
	"repro/internal/report"
	"repro/internal/sidetab"
	"repro/internal/vmheap"
)

// Zone-sharded heaps (Config.Zones >= 2). The heap is partitioned into
// contiguous zones, each with private free lists, sweep state, and sweep
// epoch (vmheap.NewZoned). Threads allocate from their current zone
// (Thread.SetZone); cross-zone reference stores feed the remembered sets
// (remset.go); and each zone can be collected — or bulk-retired — on its
// own, treating inbound cross-zone references as roots, while threads in
// other zones keep bump-allocating (their buffers are not flushed and the
// allocation fast path never takes rt.mu).
//
// Assertion semantics under zoning:
//
//   - assert-dead / assert-unshared / start-region / assert-alldead verdicts
//     from a per-zone collection match a whole-heap collection slot for slot
//     (remset slots reproduce each inbound encounter; see remset.go).
//   - assert-instances is judged only by GCZones / GCZonesConcurrent (a full
//     rotation), which sums each zone's partial live counts before comparing
//     limits; a single Zone.Collect counts its zone but draws no conclusion.
//   - assert-ownedby is a whole-heap property (owner regions are traced
//     from owner roots across zones), so any zone entry point escalates to
//     a full collection while ownership assertions are registered.
type Zone struct {
	rt  *Runtime
	idx int
	h   *vmheap.Heap
}

// Index returns the zone's position in ascending address order.
func (z *Zone) Index() int { return z.idx }

// ZoneCount returns the number of heap zones (1 for an unzoned runtime).
func (rt *Runtime) ZoneCount() int { return rt.heap.ZoneCount() }

// Zones returns the runtime's zones in ascending address order, or nil for
// an unzoned runtime.
func (rt *Runtime) Zones() []*Zone { return rt.zones }

// Zone returns zone i. It panics on an unzoned runtime or out-of-range i.
func (rt *Runtime) Zone(i int) *Zone {
	if rt.zones == nil {
		panic("core: Zone on an unzoned runtime (Config.Zones < 2)")
	}
	if i < 0 || i >= len(rt.zones) {
		panic(fmt.Sprintf("core: zone index %d out of range [0,%d)", i, len(rt.zones)))
	}
	return rt.zones[i]
}

// SetZone directs this thread's future allocations to zone z. Must be
// called by the thread's own goroutine (like region brackets); the current
// allocation buffer is retired so every buffer always belongs to its
// thread's current zone.
func (t *Thread) SetZone(z *Zone) {
	if z.rt != t.rt {
		panic("core: SetZone with a zone of a different runtime")
	}
	rt := t.rt
	// Retiring the buffer returns its tail to the OLD zone's free lists, so
	// the old zone's lock must be held (its collection could otherwise be
	// sweeping those lists); rt.mu orders the zheap write against the
	// cross-thread readers (flushAllocBuffers, the stats fold).
	zi := t.zheap.ZoneID() // owning goroutine; stable without a lock
	rt.zlocks[zi].Lock()
	rt.mu.Lock()
	t.flushBuffer()
	t.zheap = z.h
	rt.mu.Unlock()
	rt.zlocks[zi].Unlock()
}

// ZoneIndex returns the index of the zone this thread allocates from.
func (t *Thread) ZoneIndex() int { // reads t.zheap: owner goroutine or rt.mu
	return t.zheap.ZoneID()
}

// Collect runs a full mark/sweep of this zone only: the zone's reachable
// objects (from roots and inbound cross-zone references) are marked, its
// garbage swept, and every piggybacked assertion over its objects checked —
// except instance limits, which only a full rotation (GCZones /
// GCZonesConcurrent) can judge. The collection holds only this zone's lock
// for its mark and sweep, so threads in other zones keep allocating AND
// other zones' collections run simultaneously with it; only the brief root
// scan serializes on rt.mu. Escalates to a whole-heap collection while
// ownership assertions are registered. Returns a *report.HaltError if a
// violation handler requested Halt.
func (z *Zone) Collect() error { return z.rt.collectZoneOrEscalate(z.idx) }

// collectZoneOrEscalate is one zone collection as an entry point of its own
// (Zone.Collect, the pacer's zone workers): a zone that stands down for
// ownership is answered with a whole-heap collection.
func (rt *Runtime) collectZoneOrEscalate(zi int) error {
	_, escalate, err := rt.collectZoneConcurrent(zi)
	if escalate {
		return rt.GC()
	}
	return err
}

// collectZoneConcurrent runs one zone collection under the per-zone locking
// protocol. It returns the zone's live instance counts folded into tracked
// order, whether the zone stood down because an ownership assertion is
// registered (nothing was collected; the caller owes a whole-heap
// collection), and the collection's error.
//
// The claim: lock this zone, then rt.mu. Holding the zone lock FIRST means
// whole-heap operations (GC, StartGC, Close — all of which take every zone
// lock ascending) simply block until this collection folds; they can never
// observe a half-collected zone. The zoneGC counter taken under rt.mu exists
// for the one whole-heap actor that does NOT take zone locks — the pacer's
// trigger and assist, which run under rt.mu alone and must neither open a
// whole-heap cycle nor read cross-zone heap aggregates while a zone's sweep
// is mutating its counters under only its zone lock.
//
// The phases:
//
//	A (rt.mu):  the claim, this zone's buffers retired, pins collected, the
//	            inbound remembered set resolved, roots + inbound slots
//	            scanned. Mutators everywhere pause only for this scan.
//	B (none):   transitive mark (drain) and sweep, holding only this zone's
//	            lock — the concurrent bulk of the collection. Mutators
//	            cannot acquire or sever references into this zone (a
//	            reference store locks the zones of the old and new values),
//	            and anything reachable from another zone was pre-marked via
//	            the remembered set in phase A, so the snapshot cannot decay.
//	C (rt.mu):  stats folded, the claim released.
func (rt *Runtime) collectZoneConcurrent(zi int) (counts []int64, escalate bool, err error) {
	zh := rt.zoneHeaps[zi]
	ms := rt.collector.(*gc.MarkSweep) // Config.Zones >= 2 forces MarkSweep
	for {
		rt.zlocks[zi].Lock()
		rt.mu.Lock()
		if rt.engine != nil {
			g := rt.engine.Guard()
			g.Lock()
			own := rt.engine.HasOwnership()
			g.Unlock()
			if own {
				// Ownership is a whole-heap property (owner regions span
				// zones). Checked under the claim so a registration racing
				// this collection cannot slip in after the decision.
				rt.mu.Unlock()
				rt.zlocks[zi].Unlock()
				return nil, true, nil
			}
		}
		if err := rt.takePacerPending(); err != nil {
			rt.mu.Unlock()
			rt.zlocks[zi].Unlock()
			return nil, false, err
		}
		if !rt.cycleOpen() {
			break
		}
		// A whole-heap cycle is in flight; its snapshot spans every zone, so
		// it must complete before a zone collects alone. Settling needs the
		// world lock, so release the claim, settle, and re-claim.
		rt.mu.Unlock()
		rt.zlocks[zi].Unlock()
		rt.lockWorld()
		err := rt.settleCycleLocked()
		rt.unlockWorld()
		if err != nil {
			return nil, false, err
		}
	}
	rt.zoneGC++
	rt.zoneCollecting[zi] = true

	// Phase A, in the rt.mu section that took the claim. The zone's threads'
	// buffers are retired before BeginZone — its tracer reset asserts the
	// zone has none outstanding — and no new one can be carved while this
	// zone's lock is held. Other zones' buffers stay live: the pause-isolation
	// property.
	for _, t := range rt.allThreads {
		if t.zheap == zh {
			t.flushBuffer()
		}
	}
	zc := ms.BeginZone(zh)
	// Pins from every thread: out-of-zone pins are inert to the zone-gated
	// trace, in-zone pins root unpublished allocations.
	rt.collectPins()
	targets, null := rt.remsets.resolve(zi)
	zc.Scan(targets, null)
	rt.mu.Unlock()

	// Phase B.
	out := zc.Finish()

	// Phase C.
	counts = rt.reg.FoldLocalCounts(out.Counts)
	rt.mu.Lock()
	ms.FoldZone(out)
	rt.zoneGC--
	rt.zoneCollecting[zi] = false
	rt.mu.Unlock()
	rt.zlocks[zi].Unlock()
	if out.Halt != nil {
		return counts, false, &report.HaltError{Violation: out.Halt}
	}
	return counts, false, nil
}

// GCZones collects every zone in turn: GCZonesConcurrent at width 1.
func (rt *Runtime) GCZones() error { return rt.GCZonesConcurrent(1) }

// GCZonesConcurrent collects every zone — each zone-locally, without pausing
// allocation in the zones not currently being collected — with up to workers
// zones collected simultaneously, each under the per-zone locking protocol
// (Zone.Collect): while one zone's mark/sweep runs, other workers mark and
// sweep their zones and mutators keep allocating everywhere but the zones'
// brief root scans. Instance limits are then judged on the summed per-zone
// live counts. While ownership assertions are registered every zone stands
// down and the rotation is ONE whole-heap collection, whose own count check
// replaces the partial sums. On an unzoned runtime it is exactly GC().
// Returns the first *report.HaltError encountered.
//
// Precision: when the rotation starts with no unreclaimed garbage holding
// cross-zone references (for example, right after a whole-heap collection
// or a completed rotation), its combined verdicts and frees are identical
// to one whole-heap GC: every remembered-set entry then has a live source,
// so the zone traces root exactly the references a whole-heap trace would
// traverse. In general, per-zone collection is conservative in the classic
// regional-collector way: an inbound reference from a not-yet-swept dead
// source keeps its target alive one extra rotation (the entry is purged
// when the source's zone sweeps it; at width 1 garbage chains linking low
// zones to high zones die within a single rotation because zones are
// collected in ascending order), and garbage CYCLES spanning zones are
// reclaimed only by a whole-heap collection. The fuzz suite pins exactly
// this bound: no live object is ever reclaimed, and no dead object survives
// a following whole-heap cycle.
func (rt *Runtime) GCZonesConcurrent(workers int) error {
	if rt.zones == nil {
		return rt.GC()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(rt.zones) {
		workers = len(rt.zones)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		escalate bool
	)
	totals := make([]int64, rt.reg.NumTracked())
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for zi := range work {
				counts, esc, err := rt.collectZoneConcurrent(zi)
				mu.Lock()
				escalate = escalate || esc
				for i, c := range counts {
					if i < len(totals) {
						totals[i] += c
					}
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for zi := range rt.zoneHeaps {
		work <- zi
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if escalate {
		return rt.GC()
	}
	if rt.engine != nil {
		if v := rt.engine.CheckInstanceTotals(totals); v != nil {
			return &report.HaltError{Violation: v}
		}
	}
	return nil
}

// Retire bulk-frees every object in the zone — the cheapest possible
// assert-alldead: the program declares the zone's entire population dead at
// once, and reclamation is one free-list reset instead of a trace and
// sweep. Objects that are NOT dead — still referenced from another zone
// (per the remembered set) or from a root — are reported as RegionSurvivor
// violations, and the referencing slots are nulled so nothing dangles into
// the reset zone. Returns the number of distinct survivors and, if a
// violation handler requested Halt, a *report.HaltError.
//
// Region queues, ownership tables, and engine bookkeeping are purged of the
// zone's objects exactly as a collection that found them all dead would;
// while ownership assertions are registered the purge walks the whole heap,
// so every zone's buffers are flushed first (otherwise only this zone's).
func (z *Zone) Retire() (survivors int, err error) {
	rt := z.rt
	rt.lockWorld()
	defer rt.unlockWorld()
	// A whole-heap cycle's snapshot predates the retire; complete it first.
	if err := rt.settleCycleLocked(); err != nil {
		return 0, err
	}
	zh := z.h
	for _, t := range rt.allThreads {
		if t.zheap == zh {
			t.flushBuffer()
		}
	}
	hasOwnership := rt.engine != nil && rt.engine.HasOwnership()
	if hasOwnership {
		// Vacating dead owners nulls references via a whole-heap walk.
		rt.flushAllocBuffers()
	}
	rt.collectPins()
	if rt.engine != nil {
		// The retire is a degenerate collection cycle: survivors are
		// reported once each under a fresh cycle (and a fresh halt slate).
		rt.engine.BeginCycle()
	}

	// Survivor dedupe rides the runtime's scratch side table: clearing is
	// an epoch bump, so repeated retires allocate nothing once its chunks
	// exist (the world lock serializes retires).
	if rt.retireSeen == nil {
		rt.retireSeen = sidetab.NewBits()
	}
	rt.retireSeen.Clear()
	seen := rt.retireSeen
	reportSurvivor := func(obj Ref) {
		if seen.Set(uint32(obj)) {
			if rt.engine != nil {
				rt.engine.ReportRetireSurvivor(obj)
			}
		}
	}
	// Inbound cross-zone references, validated so every reported survivor
	// is a real live object of this zone.
	rt.remsets.validate(z.idx)
	for _, slot := range rt.remsets.slots(z.idx) {
		reportSurvivor(rt.heap.SlotRef(slot))
		rt.heap.SetSlotRef(slot, Nil)
	}
	// Roots: globals, frame locals, and collected pins.
	rt.rootSrc.EachRoot(func(slot *vmheap.Ref) {
		if r := *slot; r != Nil && zh.Contains(r) {
			reportSurvivor(r)
			*slot = Nil
		}
	})
	// Per-thread pin rings: a pinned or fresh-epoch pin into this zone must
	// not re-certify after the reset (the epoch bump alone handles fresh
	// stamps; pinned entries persist by design, so clear them explicitly).
	for _, t := range rt.allThreads {
		t.lockBuf()
		for i := range t.pins {
			if t.pins[i].ref != Nil && zh.Contains(t.pins[i].ref) {
				t.pins[i] = allocPin{}
			}
		}
		t.unlockBuf()
	}

	if rt.engine != nil {
		rt.engine.PreSweep(func(r Ref) bool { return !zh.Contains(r) })
	}
	st := zh.ResetZone()
	rt.remsets.retirePurge(z.idx)

	stats := rt.collector.Stats()
	stats.ZoneRetires++
	stats.FreedObjects += st.FreedObjects
	stats.FreedWords += st.FreedWords

	if rt.engine != nil {
		if v := rt.engine.Halted(); v != nil {
			return seen.Len(), &report.HaltError{Violation: v}
		}
	}
	return seen.Len(), nil
}

// ZoneStats returns a per-zone occupancy summary (nil when unzoned). Active
// allocation buffers in a zone are counted from their carve, as the heap's
// own accounting does.
func (rt *Runtime) ZoneStats() []vmheap.ZoneInfo {
	rt.lockWorld()
	defer rt.unlockWorld()
	if !rt.heap.Zoned() {
		return nil
	}
	return rt.heap.ZoneInfos()
}
