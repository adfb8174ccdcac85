// Package trace implements the collector's marking phase in the two
// configurations the paper measures:
//
//   - The Base loop is an unmodified depth-first mark: pop a reference,
//     mark and push its unmarked children. No assertion checks, no path
//     bookkeeping. This is the "Base" configuration of Figures 2-5.
//
//   - The Infrastructure loop adds the paper's machinery: every popped
//     reference is pushed back with its low-order bit set before its
//     children are scanned, so the set-bit entries on the worklist always
//     spell out the exact path from a root to the current object (Section
//     2.7); and each encountered object is checked against the assertion
//     header bits (dead, unshared, ownee) and counted toward any
//     assert-instances limits. This is the "Infrastructure" configuration —
//     the checks run whether or not the program registered assertions.
//
// The low-bit trick is sound here for the same reason it is in Jikes RVM:
// objects are two-word aligned (vmheap), so every real Ref has a zero low
// bit.
package trace

import (
	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/roots"
	"repro/internal/telemetry"
	"repro/internal/vmheap"
)

// Stats counts the work done by one marking pass (both phases).
type Stats struct {
	Visited       uint64 // objects marked (first visits)
	VisitedWords  uint64 // total size in words of the marked objects
	RefsScanned   uint64 // reference slots examined
	DeadHits      uint64 // encounters of dead-asserted objects
	SharedHits    uint64 // re-encounters of unshared-asserted objects
	OwneesChecked uint64 // ownee objects tested for the owned bit
	ForcedRefs    uint64 // references nulled by the Force action
}

// Checks is the assertion callout surface the collector wires into the
// Infrastructure loop. All callbacks run with the world stopped. A nil
// callback disables its check.
type Checks struct {
	// Dead is invoked when a reference to a dead-asserted object is
	// encountered. path lazily reconstructs the full heap path ending at
	// the object. The returned action selects log/halt/force handling;
	// Force makes the tracer null the encountered reference and skip the
	// object, so it (and anything reachable only through it) is swept.
	Dead func(obj vmheap.Ref, path func() []vmheap.Ref) report.Action

	// Shared is invoked when an already-marked object with the unshared
	// bit is encountered again — the second incoming pointer. The path
	// is the second path, per the paper's Section 2.7 limitation.
	Shared func(obj vmheap.Ref, path func() []vmheap.Ref)

	// Unowned is invoked during the root phase when an ownee is first
	// visited without its owned bit — it is reachable, but not through
	// its owner.
	Unowned func(obj vmheap.Ref, path func() []vmheap.Ref)
}

// Tracer holds the reusable marking state for one heap.
type Tracer struct {
	heap *vmheap.Heap
	reg  *classes.Registry

	// stack is the worklist. In the Infrastructure loop, entries with the
	// low bit set are "open": their children are being traced, and the
	// open entries bottom-to-top are the current root-to-object path.
	stack []uint32

	// owned and improper are the ownership phase's queues (ownees tagged
	// by their own owner's scan; ownees some other owner's scan reached),
	// kept here so a collection reuses the previous one's storage.
	owned, improper []vmheap.Ref

	// visitRoot is t.encounter bound once, so handing it to a root source
	// does not allocate a closure per collection.
	visitRoot func(slot *vmheap.Ref)

	checks Checks
	stats  Stats
	halt   *report.Violation // set when a handler requested Halt

	// incScan is true while an incremental cycle is marking: scans set the
	// per-object FlagScanned bit so the snapshot-at-beginning write barrier
	// knows which objects still hold unprocessed snapshot references. Never
	// set during stop-the-world traces, which therefore touch no new flag
	// bits.
	incScan bool

	// barrierSrc is non-Nil while the write barrier is scanning an object's
	// snapshot references; it replaces the worklist-derived path in
	// CurrentPath (the worklist does not describe how the barrier reached
	// the object).
	barrierSrc vmheap.Ref

	// zlo/zhi bound a zone-scoped trace (ResetZone): references outside
	// [zlo, zhi) are completely inert — counted as scanned but never
	// dereferenced, checked, marked, or pushed — so a zone trace touches
	// no header outside its zone and each object is checked exactly once
	// per whole rotation of zone collections, matching the whole-heap
	// trace's per-cycle deduplication. zhi == 0 (the Reset state) disarms
	// the gate.
	//
	// A zone trace overlaps mutators and other zones' collections, so it
	// reads — and Force-nulls — reference slots through the atomic heap
	// accessors: an in-zone slot this trace scans can simultaneously be
	// Force-nulled by another zone's trace (the slot is a remembered-set
	// entry of that zone), and every mutator slot load is likewise atomic
	// on zoned runtimes. Headers stay plain: the zone gate means only this
	// trace touches this zone's headers.
	zlo, zhi uint32

	// localCounts accumulates assert-instances tallies for a zone trace.
	// Overlapping traces bumping the registry's shared per-class counters
	// would corrupt both tallies, so each zone trace counts privately; the
	// runtime folds the map through Registry.FoldLocalCounts after the
	// trace.
	localCounts map[uint32]int64

	// tele, when non-nil, receives a span per marking pass (mark,
	// ownership, minor_mark). Nil — the default — costs one branch per
	// pass, nothing per object.
	tele *telemetry.Recorder
}

// New creates a tracer for the given heap and class registry.
func New(h *vmheap.Heap, reg *classes.Registry) *Tracer {
	t := &Tracer{heap: h, reg: reg, stack: make([]uint32, 0, 1024)}
	t.visitRoot = t.encounter
	return t
}

// SetChecks installs the assertion callouts for subsequent Infrastructure
// traces.
func (t *Tracer) SetChecks(c Checks) { t.checks = c }

// SetTelemetry attaches a telemetry recorder; the tracer then emits one
// phase span per marking pass. nil detaches (the default).
func (t *Tracer) SetTelemetry(rec *telemetry.Recorder) { t.tele = rec }

// mark sets c's mark bit and counts the first visit; hd is c's header as
// the caller loaded it. The size accumulation gives the collector exact live
// totals at mark termination (VisitedWords), which lets a lazy sweep skip
// its stats census.
func (t *Tracer) mark(c vmheap.Ref, hd uint64) {
	t.heap.SetFlags(c, vmheap.FlagMark)
	t.countVisit(hd)
	if class := vmheap.DecodeClassID(hd); t.reg.Tracked(class) {
		t.countInstance(class)
	}
}

// countVisit records one first-visit mark of an object with header hd.
func (t *Tracer) countVisit(hd uint64) {
	t.stats.Visited++
	t.stats.VisitedWords += uint64(vmheap.DecodeSizeWords(hd))
}

// countInstance records one live instance of a tracked class for
// assert-instances. A zone trace tallies locally (see localCounts);
// everything else feeds the registry's shared counters.
func (t *Tracer) countInstance(class uint32) {
	if t.zoned() {
		if t.localCounts == nil {
			t.localCounts = make(map[uint32]int64)
		}
		t.localCounts[class]++
	} else {
		t.reg.CountInstance(class)
	}
}

// push puts a newly marked object on the worklist to have its slots
// scanned. A data array has none — nothing can be reached, and so no
// reported path can pass, through it, and every check on the array itself
// ran at the encounter with CurrentPath already ending at it — so it never
// enters the worklist. The exception is an incremental cycle, where the pop
// is what tags the object FlagScanned and what the slice budget counts.
func (t *Tracer) push(c vmheap.Ref, hd uint64) {
	if vmheap.DecodeKind(hd) == vmheap.KindDataArray && !t.incScan {
		return
	}
	t.stack = append(t.stack, uint32(c))
}

// seen runs the checks for an encounter of an object c whose header hd has
// the dead or the mark bit: the dead check on every encounter (the Force
// action must null every incoming reference, not just the first), and on a
// second or later encounter the unshared check. done reports that the
// caller is finished with c — the reference is to be nulled (forceNull), or
// c was already marked.
func (t *Tracer) seen(c vmheap.Ref, hd uint64) (forceNull, done bool) {
	if hd&vmheap.FlagDead != 0 {
		t.stats.DeadHits++
		if t.checks.Dead != nil && t.checks.Dead(c, t.pathTo(c)) == report.Force {
			t.stats.ForcedRefs++
			return true, true
		}
	}
	if hd&vmheap.FlagMark == 0 {
		return false, false
	}
	if hd&vmheap.FlagUnshared != 0 {
		t.stats.SharedHits++
		if t.checks.Shared != nil {
			t.checks.Shared(c, t.pathTo(c))
		}
	}
	return false, true
}

// pathTo returns the lazy path argument of a check callout for c.
func (t *Tracer) pathTo(c vmheap.Ref) func() []vmheap.Ref {
	return func() []vmheap.Ref { return t.CurrentPath(c) }
}

// Stats returns the counters accumulated since the last Reset.
func (t *Tracer) Stats() Stats { return t.stats }

// Halted returns the violation for which a handler requested Halt during
// the last trace, or nil.
func (t *Tracer) Halted() *report.Violation { return t.halt }

// Reset clears per-collection state (stats, halt request). Every
// whole-heap collection resets the tracer before marking, so this is also
// the chokepoint asserting that no allocation buffer is outstanding: a trace
// over a heap with an active buffer would push refs whose eventual sweep
// cannot parse the buffer's unwritten tail.
func (t *Tracer) Reset() {
	t.heap.AssertNoBuffersAll("trace")
	t.reset()
}

// ResetZone prepares the tracer for a zone-scoped collection: the same
// per-collection state clearing as Reset, but only the zone's own
// allocation buffers must be retired (peers keep bump-allocating through
// the collection), and the zone gate is armed over z's range.
func (t *Tracer) ResetZone(z *vmheap.Heap) {
	z.AssertNoBuffers("trace")
	t.reset()
	t.zlo, t.zhi = z.ZoneRange()
}

// reset clears the per-collection state and disarms the zone gate.
func (t *Tracer) reset() {
	t.stats = Stats{}
	t.halt = nil
	t.stack = t.stack[:0]
	t.incScan = false
	t.barrierSrc = vmheap.Nil
	t.zlo, t.zhi = 0, 0
	t.localCounts = nil
}

// LocalCounts returns the per-class live-instance tally of the last zone
// trace (nil when nothing was tracked, or after a whole-heap Reset).
func (t *Tracer) LocalCounts() map[uint32]int64 { return t.localCounts }

// zoned reports whether this is a zone-scoped trace (the gate is armed).
func (t *Tracer) zoned() bool { return t.zhi != 0 }

// inZone reports whether the trace may dereference c: always true with the
// gate disarmed, else only for refs inside the zone bounds.
func (t *Tracer) inZone(c vmheap.Ref) bool {
	return !t.zoned() || (uint32(c) >= t.zlo && uint32(c) < t.zhi)
}

// RequestHalt records a halt-requesting violation; the collector finishes
// the cycle (the heap must reach a consistent state) and then surfaces it.
func (t *Tracer) RequestHalt(v *report.Violation) {
	if t.halt == nil {
		t.halt = v
	}
}

// ---------------------------------------------------------------------------
// Base loop

// TraceBase marks everything reachable from src with a plain depth-first
// scan: the unmodified collector of the paper's Base configuration.
func (t *Tracer) TraceBase(src roots.Source) {
	teleStart := t.tele.Begin(telemetry.PhaseMark)
	defer t.tele.End(telemetry.PhaseMark, teleStart)
	h := t.heap
	stack := t.stack[:0]

	src.EachRoot(func(slot *vmheap.Ref) {
		if t.markBase(*slot) {
			stack = append(stack, uint32(*slot))
		}
	})

	for len(stack) > 0 {
		r := vmheap.Ref(stack[len(stack)-1])
		stack = stack[:len(stack)-1]

		switch h.KindOf(r) {
		case vmheap.KindScalar:
			for _, off := range t.reg.RefOffsets(h.ClassID(r)) {
				c := h.RefAt(r, uint32(off))
				t.stats.RefsScanned++
				if t.markBase(c) {
					stack = append(stack, uint32(c))
				}
			}
		case vmheap.KindRefArray:
			n := h.ArrayLen(r)
			for i := uint32(0); i < n; i++ {
				c := vmheap.Ref(h.ArrayWord(r, i))
				t.stats.RefsScanned++
				if t.markBase(c) {
					stack = append(stack, uint32(c))
				}
			}
		}
	}
	t.stack = stack
}

// markBase is the Base loop's per-reference step: it marks and counts c if
// c is an unmarked object inside the zone gate, and reports whether c must
// then be scanned — a data array has no slots, so it is not.
func (t *Tracer) markBase(c vmheap.Ref) bool {
	if c == vmheap.Nil || !t.inZone(c) {
		return false
	}
	hd := t.heap.Header(c)
	if hd&vmheap.FlagMark != 0 {
		return false
	}
	t.heap.SetFlags(c, vmheap.FlagMark)
	t.countVisit(hd)
	return vmheap.DecodeKind(hd) != vmheap.KindDataArray
}

// ---------------------------------------------------------------------------
// Infrastructure loop

// TraceInfra marks everything reachable from src using the paper's
// path-tracking worklist and runs the piggybacked assertion checks on every
// encountered reference. The ownership pre-phase, if any, must already have
// run (marked objects are simply not re-traced).
func (t *Tracer) TraceInfra(src roots.Source) {
	teleStart := t.tele.Begin(telemetry.PhaseMark)
	defer t.tele.End(telemetry.PhaseMark, teleStart)
	t.stack = t.stack[:0]

	src.EachRoot(t.visitRoot)

	t.drainInfra()
}

// SlotTarget is one pre-resolved remembered-set slot for a zone trace: the arena word index and the in-zone value it held when the
// collection's setup validated the remembered set. The value is resolved
// at setup — under the remembered set's lock, while the slot's source
// object is provably unfreed — rather than re-read at encounter time,
// because by then a concurrent collection of the source's zone may have
// freed the source and recycled the slot's memory.
type SlotTarget struct {
	Slot   uint32
	Target vmheap.Ref
}

// ZoneRootScan, ZoneSlotScan and ZoneDrain are the phases of a zone
// collection's Infrastructure trace; the zone gate armed by ResetZone filters
// out-of-zone references throughout. The caller runs ZoneRootScan under the
// runtime lock (root slots belong to frames and globals that
// mutators update under it) and ZoneSlotScan with the pre-resolved
// targets; both only seed the worklist and run the per-encounter checks on
// the roots themselves. ZoneDrain then does the bulk of the marking with
// only the zone's own lock held, concurrently with mutators and other
// zones' collections.
func (t *Tracer) ZoneRootScan(src roots.Source) {
	src.EachRoot(t.visitRoot)
}

// ZoneSlotScan encounters each pre-resolved remembered-set target as a
// root: each is the value of a field of a live object in another zone that
// points into this zone. A Force verdict calls null(slot) instead of writing the heap word
// directly: only the remembered set's owner can tell whether the slot's
// memory is still valid (its source object may have been freed by a
// concurrent collection of another zone), so the null — and the matching
// entry drop — happen under its lock in the callback.
func (t *Tracer) ZoneSlotScan(targets []SlotTarget, null func(slot uint32)) {
	for _, st := range targets {
		if st.Target == vmheap.Nil {
			continue
		}
		if t.check(st.Target) && null != nil {
			null(st.Slot)
		}
	}
}

// ZoneDrain runs the path-tracking DFS over the seeded worklist. This is
// the concurrent bulk of a zone collection; one telemetry mark span covers
// it (the root and slot scans are part of the collection's setup pause).
func (t *Tracer) ZoneDrain() {
	teleStart := t.tele.Begin(telemetry.PhaseMark)
	defer t.tele.End(telemetry.PhaseMark, teleStart)
	t.drainInfra()
}

// drainInfra runs the path-tracking DFS until the worklist is empty.
func (t *Tracer) drainInfra() {
	for len(t.stack) > 0 {
		e := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if e&1 != 0 {
			// Close marker: all objects reachable from it are done.
			continue
		}
		// Keep the object on the worklist, tagged, while its children
		// are traced; the tagged entries define the current path.
		t.stack = append(t.stack, e|1)
		t.scanObject(vmheap.Ref(e))
	}
}

// scanObject processes every reference slot of r through the Infrastructure
// per-encounter checks.
func (t *Tracer) scanObject(r vmheap.Ref) {
	h := t.heap
	switch h.KindOf(r) {
	case vmheap.KindScalar:
		for _, off := range t.reg.RefOffsets(h.ClassID(r)) {
			t.encounterField(r, uint32(off))
		}
	case vmheap.KindRefArray:
		n := h.ArrayLen(r)
		for i := uint32(0); i < n; i++ {
			t.encounterArraySlot(r, i)
		}
	case vmheap.KindDataArray:
		// No references.
	}
}

// encounterField processes the reference in field word off of obj. A zone
// trace loads and Force-nulls the slot atomically: the
// slot may simultaneously be Force-nulled by another zone's trace holding
// it as a remembered-set entry.
func (t *Tracer) encounterField(obj vmheap.Ref, off uint32) {
	var c vmheap.Ref
	if t.zoned() {
		c = t.heap.RefAtAtomic(obj, off)
	} else {
		c = t.heap.RefAt(obj, off)
	}
	if c == vmheap.Nil {
		t.stats.RefsScanned++
		return
	}
	if t.check(c) {
		if t.zoned() {
			t.heap.SetRefAtAtomic(obj, off, vmheap.Nil)
		} else {
			t.heap.SetRefAt(obj, off, vmheap.Nil)
		}
	}
}

// encounterArraySlot processes array element i of obj.
func (t *Tracer) encounterArraySlot(obj vmheap.Ref, i uint32) {
	var c vmheap.Ref
	if t.zoned() {
		c = vmheap.Ref(t.heap.ArrayWordAtomic(obj, i))
	} else {
		c = vmheap.Ref(t.heap.ArrayWord(obj, i))
	}
	if c == vmheap.Nil {
		t.stats.RefsScanned++
		return
	}
	if t.check(c) {
		if t.zoned() {
			t.heap.SetArrayWordAtomic(obj, i, 0)
		} else {
			t.heap.SetArrayWord(obj, i, 0)
		}
	}
}

// encounter processes a root slot.
func (t *Tracer) encounter(slot *vmheap.Ref) {
	c := *slot
	if c == vmheap.Nil {
		return
	}
	if t.check(c) {
		*slot = vmheap.Nil
	}
}

// check runs the per-encounter assertion checks on c and, if c is unmarked,
// marks it, counts it, and pushes it on the worklist. It returns true when
// the Force action requires the caller to null the reference it followed.
func (t *Tracer) check(c vmheap.Ref) (forceNull bool) {
	h := t.heap
	t.stats.RefsScanned++
	// Zone gate, before the header read: an out-of-zone reference is
	// completely inert to a zone-scoped trace. Its object belongs to
	// another zone's collections; reading (or worse, flagging) its header
	// here would race with that zone's concurrent bump allocation and
	// double-check objects across a rotation of zone collections.
	if t.zhi != 0 && (uint32(c) < t.zlo || uint32(c) >= t.zhi) {
		return false
	}
	hd := h.Header(c)
	if hd&(vmheap.FlagDead|vmheap.FlagMark) != 0 {
		if force, done := t.seen(c, hd); done {
			return force
		}
	}

	// First visit.
	t.mark(c, hd)

	// Root-phase ownership check: a reachable ownee must carry the owned
	// bit left by the ownership phase.
	if hd&vmheap.FlagOwnee != 0 {
		t.stats.OwneesChecked++
		if hd&vmheap.FlagOwned == 0 && t.checks.Unowned != nil {
			t.checks.Unowned(c, t.pathTo(c))
		}
	}

	t.push(c, hd)
	return false
}

// CurrentPath reconstructs the root-to-object path for the object currently
// being encountered: the open (low-bit-tagged) worklist entries bottom to
// top, followed by the object itself. During root scanning the path is just
// the object. During a write-barrier snapshot scan the worklist describes an
// unrelated traversal, so the path is the scanned source object followed by
// the encountered object.
func (t *Tracer) CurrentPath(obj vmheap.Ref) []vmheap.Ref {
	if t.barrierSrc != vmheap.Nil {
		return []vmheap.Ref{t.barrierSrc, obj}
	}
	n := 1
	for _, e := range t.stack {
		n += int(e & 1)
	}
	path := make([]vmheap.Ref, 0, n)
	for _, e := range t.stack {
		if e&1 != 0 {
			path = append(path, vmheap.Ref(e&^1))
		}
	}
	return append(path, obj)
}
