package assertions

import (
	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// This file contains the collector-facing side of the engine: the hooks
// wired into the trace loops and the begin/end-of-cycle table maintenance.

// BeginCycle prepares the engine for a collection: the cycle counter
// advances, per-cycle report deduplication and any pending Halt are reset
// (the collection that produced a Halt already surfaced it), and every ownee
// stamp left by an earlier collection is retired.
func (e *Engine) BeginCycle() {
	e.cycle++
	e.halt = nil
	clear(e.reportedDead)
	clear(e.reportedShared)
	clear(e.reportedImproper)
	e.ownees.NextEpoch()
}

// Halted returns the violation for which the handler requested Halt during
// the current cycle, or nil.
func (e *Engine) Halted() *report.Violation { return e.halt }

// Checks returns the assertion callouts for the Infrastructure trace loop.
func (e *Engine) Checks() trace.Checks { return e.checks }

// OwnershipPhase returns the phase descriptor for the collector, or nil when
// no ownership assertions are registered. The descriptor is the engine's
// own and is valid for the collection now starting.
func (e *Engine) OwnershipPhase() *trace.OwnershipPhase {
	if !e.HasOwnership() {
		return nil
	}
	e.phase.Owners = e.owners
	return &e.phase
}

// pathElems resolves a raw reference path into class-named elements.
func (e *Engine) pathElems(path []vmheap.Ref) []report.PathElem {
	out := make([]report.PathElem, len(path))
	for i, r := range path {
		out[i] = report.PathElem{Class: e.reg.Name(e.heap.ClassID(r)), Ref: r}
	}
	return out
}

// dispatch routes a violation to the handler and folds the returned action:
// Halt is recorded for the collector to surface after the collection
// completes (the heap must reach a consistent state first), and the
// effective action for the tracer is returned.
func (e *Engine) dispatch(v *report.Violation) report.Action {
	e.stats.Violations++
	act := report.Continue
	if e.handler != nil {
		act = e.handler.HandleViolation(v)
	}
	if act == report.Halt {
		if e.halt == nil {
			e.halt = v
		}
		return report.Continue
	}
	return act
}

// onDead handles an encounter of a dead-asserted object during tracing. The
// handler runs once per object per cycle; its action is cached so Force is
// applied uniformly to every incoming reference.
func (e *Engine) onDead(obj vmheap.Ref, path func() []vmheap.Ref) report.Action {
	if act, seen := e.reportedDead[obj]; seen {
		return act
	}
	kind := report.DeadReachable
	if e.heap.Flags(obj, vmheap.FlagRegion) != 0 {
		kind = report.RegionSurvivor
	}
	v := &report.Violation{
		Kind:   kind,
		Cycle:  e.cycle,
		Object: obj,
		Class:  e.reg.Name(e.heap.ClassID(obj)),
		Path:   e.pathElems(path()),
	}
	act := e.dispatch(v)
	if e.reportedDead == nil {
		e.reportedDead = make(map[vmheap.Ref]report.Action)
	}
	e.reportedDead[obj] = act
	return act
}

// onShared handles the second encounter of an unshared-asserted object.
func (e *Engine) onShared(obj vmheap.Ref, path func() []vmheap.Ref) {
	if e.reportedShared[obj] {
		return
	}
	if e.reportedShared == nil {
		e.reportedShared = make(map[vmheap.Ref]bool)
	}
	e.reportedShared[obj] = true
	e.dispatch(&report.Violation{
		Kind:   report.SharedObject,
		Cycle:  e.cycle,
		Object: obj,
		Class:  e.reg.Name(e.heap.ClassID(obj)),
		Path:   e.pathElems(path()),
	})
}

// firstImproper records obj in the ownership-warning table, reporting
// whether this is its first entry this cycle.
func (e *Engine) firstImproper(obj vmheap.Ref) bool {
	if e.reportedImproper[obj] {
		return false
	}
	if e.reportedImproper == nil {
		e.reportedImproper = make(map[vmheap.Ref]bool)
	}
	e.reportedImproper[obj] = true
	return true
}

// onUnowned handles a root-phase visit of an ownee without the owned bit.
// It shares the improper table with onImproper — whichever phase reports
// an object first suppresses the other's warning — and records its own
// report, so an ownee reaching this hook through more than one phase (the
// root scan and the ownee-subtree drain both call it) warns exactly once
// per cycle.
func (e *Engine) onUnowned(obj vmheap.Ref, path func() []vmheap.Ref) {
	if !e.firstImproper(obj) {
		// Already reported as improper use during the ownership phase;
		// a second warning for the same object would be noise.
		return
	}
	ownerName := "unknown owner"
	if idx, ok := e.ownees.Get(uint32(obj)); ok {
		if o := e.owners[idx]; o != vmheap.Nil {
			ownerName = e.reg.Name(e.heap.ClassID(o))
		}
	}
	e.dispatch(&report.Violation{
		Kind:   report.UnownedOwnee,
		Cycle:  e.cycle,
		Object: obj,
		Class:  e.reg.Name(e.heap.ClassID(obj)),
		Path:   e.pathElems(path()),
		Owner:  ownerName,
	})
}

// onImproper handles an ownee reached from a different owner's scan.
func (e *Engine) onImproper(obj vmheap.Ref, scanningOwner int, path func() []vmheap.Ref) {
	if !e.firstImproper(obj) {
		return
	}
	owner := "unknown owner"
	if o := e.owners[scanningOwner]; o != vmheap.Nil {
		owner = e.reg.Name(e.heap.ClassID(o))
	}
	e.dispatch(&report.Violation{
		Kind:   report.ImproperOwnership,
		Cycle:  e.cycle,
		Object: obj,
		Class:  e.reg.Name(e.heap.ClassID(obj)),
		Path:   e.pathElems(path()),
		Owner:  owner,
	})
}

// CheckInstanceLimits runs at the end of the mark phase: tracked classes
// whose live counts exceed their limits are reported. No path is available
// (the paper's Section 2.7 limitation for assert-instances).
func (e *Engine) CheckInstanceLimits() {
	for _, over := range e.reg.CheckLimits() {
		e.dispatch(&report.Violation{
			Kind:  report.TooManyInstances,
			Cycle: e.cycle,
			Class: over.Class.Name,
			Count: over.Count,
			Limit: over.Limit,
		})
	}
}

// PreSweep runs after the mark phase and before the sweep, while unmarked
// objects are still parseable. It purges every engine table of entries
// about to be reclaimed, so no table ever holds a reference into freed (and
// reusable) memory:
//
//   - region queues drop dying entries (those objects were born and died
//     inside the region — the assertion holds for them);
//   - dying ownees leave the ownee index (the paper: "we must remove each
//     unreachable ownee after a GC");
//   - dying owners vacate their slot, and their surviving ownees' pairs are
//     dropped (ownership of a collected owner is no longer checkable).
//
// An object survives the imminent sweep exactly when its mark bit is set.
//
// The ownee purge walks the index rather than the heap: an entry the
// ownership phase stamped needs no header read. Stamped implies marked,
// because a stamp is only ever written by a Lookup
// made since this collection's BeginCycle (BeginCycle and the end of this
// function both retire all stamps), the only such Lookup is the owner
// scan's on an ownee it has just reached, and that scan either marks the
// ownee on the spot (reached from its own owner) or lists it as improper,
// in which case RunOwnershipPhase marks it before the phase returns.
// Nothing clears a mark bit before the sweep that follows this function.
// DebugChecks verifies the implication per entry.
func (e *Engine) PreSweep() {
	if e.purgeRegions != nil {
		e.purgeRegions(e.keep)
	}

	e.dying = e.dying[:0]
	if e.ownees.Len() == 0 && len(e.owners) == 0 {
		return
	}

	// Vacate dying owners first so their ownees can be dropped in the
	// same pass.
	if cap(e.deadOwner) < len(e.owners) {
		e.deadOwner = make([]bool, len(e.owners))
	}
	deadOwner := e.deadOwner[:len(e.owners)]
	clear(deadOwner)
	dying := e.dying
	for i, o := range e.owners {
		if o != vmheap.Nil && !e.marked(o) {
			deadOwner[i] = true
			dying = append(dying, o)
			e.ownerIdx.Delete(uint32(o))
			// The object is about to be freed; its header dies with it,
			// so there is no bit to clear.
			e.owners[i] = vmheap.Nil
		}
	}
	e.dying = dying
	// An owner is deliberately never marked by its own region's scans (back
	// edges must not keep a collectable owner alive), so an owner can die
	// while its region survives on the pre-phase marks. Null the survivors'
	// references into the dying owners — left in place they would dangle
	// into freed, recyclable memory.
	if len(dying) > 0 {
		e.nullRefsTo(dying)
	}

	for i := 0; i < e.ownees.Slots(); {
		key, owner, stamped := e.ownees.Slot(i)
		if key == 0 {
			i++
			continue
		}
		obj := vmheap.Ref(key)
		if vmheap.DebugChecks && stamped && !e.marked(obj) {
			panic("assertions: ownee stamped by the ownership phase is not live at PreSweep")
		}
		switch {
		case !stamped && !e.marked(obj):
			// Dying ownee: drop the pair; the header dies with it.
		case deadOwner[owner]:
			// Surviving ownee of a dead owner: drop the pair and clear
			// the stale ownee bit so the next trace does not misreport.
			e.heap.ClearFlags(obj, vmheap.FlagOwnee|vmheap.FlagOwned)
		default:
			i++
			continue
		}
		// Deleting may pull a later entry into slot i: look at it again.
		e.ownees.DeleteSlot(i)
	}
	e.ownees.NextEpoch()
}

// nullRefsTo nulls every reference slot of a surviving object that points
// at one of the dying owner objects. Only objects marked by the ownership
// phase's truncation rules can hold such references (any root-phase scan
// reaching an owner would have marked it), so this runs only on cycles that
// actually collect an owner.
func (e *Engine) nullRefsTo(dying []vmheap.Ref) {
	dead := make(map[vmheap.Ref]bool, len(dying))
	for _, r := range dying {
		dead[r] = true
	}
	h := e.heap
	h.Iterate(func(r vmheap.Ref, hd uint64) {
		if hd&vmheap.FlagMark == 0 {
			return
		}
		switch h.KindOf(r) {
		case vmheap.KindScalar:
			for _, off := range e.reg.RefOffsets(h.ClassID(r)) {
				if dead[h.RefAt(r, uint32(off))] {
					h.SetRefAt(r, uint32(off), vmheap.Nil)
				}
			}
		case vmheap.KindRefArray:
			n := h.ArrayLen(r)
			for i := uint32(0); i < n; i++ {
				if dead[vmheap.Ref(h.ArrayWord(r, i))] {
					h.SetArrayWord(r, i, 0)
				}
			}
		}
	})
}

// marked reports that r survives the imminent sweep.
func (e *Engine) marked(r vmheap.Ref) bool { return e.heap.Flags(r, vmheap.FlagMark) != 0 }

// VacatedOwners returns how many owners the most recent PreSweep vacated.
// Each one's region may have survived that collection on the ownership
// pre-phase's marks alone (see PreSweep), so only the next collection can
// free it.
func (e *Engine) VacatedOwners() int { return len(e.dying) }

// SweepFlags returns the header bits the sweep must clear on survivors:
// the owned bit is recomputed by each cycle's ownership phase.
func (e *Engine) SweepFlags() uint64 { return vmheap.FlagOwned }

// InstanceLimitFor exposes a class's current limit (tools and tests).
func (e *Engine) InstanceLimitFor(c *classes.Class) int64 { return c.InstanceLimit() }
