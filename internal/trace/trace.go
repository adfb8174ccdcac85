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

	// tele, when non-nil, receives a span per marking pass (mark,
	// ownership). Nil — the default — costs one branch per
	// pass, nothing per object.
	tele *telemetry.Recorder
}

// New creates a tracer for the given heap and class registry.
func New(h *vmheap.Heap, reg *classes.Registry) *Tracer {
	return &Tracer{heap: h, reg: reg, stack: make([]uint32, 0, 1024)}
}

// SetChecks installs the assertion callouts for subsequent Infrastructure
// traces.
func (t *Tracer) SetChecks(c Checks) { t.checks = c }

// SetTelemetry attaches a telemetry recorder; the tracer then emits one
// phase span per marking pass. nil detaches (the default).
func (t *Tracer) SetTelemetry(rec *telemetry.Recorder) { t.tele = rec }

// mark sets c's mark bit and counts the first visit; hd is c's header as
// the caller loaded it. The size accumulation gives the collector the marked
// words of each cycle (VisitedWords, which feeds gc.Stats.MarkedWords).
func (t *Tracer) mark(c vmheap.Ref, hd uint64) {
	t.heap.SetFlags(c, vmheap.FlagMark)
	t.countVisit(hd)
	if class := vmheap.DecodeClassID(hd); t.reg.Tracked(class) {
		t.reg.CountInstance(class)
	}
}

// countVisit records one first-visit mark of an object with header hd.
func (t *Tracer) countVisit(hd uint64) {
	t.stats.Visited++
	t.stats.VisitedWords += uint64(vmheap.DecodeSizeWords(hd))
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

// Reset clears per-collection state (stats, halt request). Every collection
// resets the tracer before marking, so this is also the chokepoint asserting
// that no allocation buffer is outstanding: a trace over a heap with an
// active buffer would push refs whose eventual sweep cannot parse the
// buffer's unwritten tail.
func (t *Tracer) Reset() {
	t.heap.AssertNoBuffers("trace")
	t.stats = Stats{}
	t.halt = nil
	t.stack = t.stack[:0]
	t.incScan = false
	t.barrierSrc = vmheap.Nil
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

// TraceBase marks everything reachable from roots with a plain depth-first
// scan: the unmodified collector of the paper's Base configuration. roots are
// slot spans (the runtime's globals and thread stacks); Nil slots are skipped.
func (t *Tracer) TraceBase(roots [][]vmheap.Ref) {
	teleStart := t.tele.Begin(telemetry.PhaseMark)
	defer t.tele.End(telemetry.PhaseMark, teleStart)
	h := t.heap
	stack := t.stack[:0]

	for _, span := range roots {
		for _, r := range span {
			if t.markBase(r) {
				stack = append(stack, uint32(r))
			}
		}
	}

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
// c is an unmarked object, and reports whether c must then be scanned — a
// data array has no slots, so it is not.
func (t *Tracer) markBase(c vmheap.Ref) bool {
	if c == vmheap.Nil {
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

// TraceInfra marks everything reachable from roots using the paper's
// path-tracking worklist and runs the piggybacked assertion checks on every
// encountered reference. The ownership pre-phase, if any, must already have
// run (marked objects are simply not re-traced).
func (t *Tracer) TraceInfra(roots [][]vmheap.Ref) {
	teleStart := t.tele.Begin(telemetry.PhaseMark)
	defer t.tele.End(telemetry.PhaseMark, teleStart)
	t.stack = t.stack[:0]
	t.scanRoots(roots)
	t.drainInfra()
}

// scanRoots runs the per-encounter checks on every non-Nil root slot, in
// span order, and nulls the slot in place when the Force action asks for it.
func (t *Tracer) scanRoots(roots [][]vmheap.Ref) {
	for _, span := range roots {
		for i, c := range span {
			if c != vmheap.Nil && t.check(c) {
				span[i] = vmheap.Nil
			}
		}
	}
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

// encounterField processes the reference in field word off of obj.
func (t *Tracer) encounterField(obj vmheap.Ref, off uint32) {
	c := t.heap.RefAt(obj, off)
	if c == vmheap.Nil {
		t.stats.RefsScanned++
		return
	}
	if t.check(c) {
		t.heap.SetRefAt(obj, off, vmheap.Nil)
	}
}

// encounterArraySlot processes array element i of obj.
func (t *Tracer) encounterArraySlot(obj vmheap.Ref, i uint32) {
	c := vmheap.Ref(t.heap.ArrayWord(obj, i))
	if c == vmheap.Nil {
		t.stats.RefsScanned++
		return
	}
	if t.check(c) {
		t.heap.SetArrayWord(obj, i, 0)
	}
}

// check runs the per-encounter assertion checks on c and, if c is unmarked,
// marks it, counts it, and pushes it on the worklist. It returns true when
// the Force action requires the caller to null the reference it followed.
func (t *Tracer) check(c vmheap.Ref) (forceNull bool) {
	h := t.heap
	t.stats.RefsScanned++
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
