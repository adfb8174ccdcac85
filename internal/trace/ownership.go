package trace

import (
	"repro/internal/sidetab"
	"repro/internal/telemetry"
	"repro/internal/vmheap"
)

// OwnershipPhase describes the owner-first pre-phase of a collection
// (paper Section 2.5.2). Before the root scan, the collector traces from
// each owner object; ownees reached from their own owner are tagged with
// the owned bit, so the subsequent root scan can flag any reachable ownee
// that lacks the tag.
//
// The owner scans are truncated at ownees — "collections are essentially
// truncated when their leaves are reached", which defeats the back-edge
// problem — and at other owners (marked and left for their own scan).
// Truncated ownees are queued, and their subtrees are traced after every
// owner has been scanned. The queue processing runs with ordinary tracing
// semantics plus two rules: an unmarked ownee encountered there was not
// reached by its own owner's scan and is reported immediately (it would
// otherwise be masked from the root phase by the mark this trace sets),
// and owner objects are never marked (an owner must stay collectable when
// no root reaches it).
type OwnershipPhase struct {
	// Owners lists the owner objects in scan order; an ownee's index value
	// is its owner's position here. Entries may be Nil when a pair was
	// purged after its owner died. Every non-Nil entry carries FlagOwner.
	Owners []vmheap.Ref

	// Ownees maps each ownee (objects carrying FlagOwnee) to its owner's
	// index in Owners. The owner scan uses the stamping Lookup, so the
	// engine's pre-sweep purge can tell which ownees this phase reached.
	Ownees *sidetab.Index

	// Improper is invoked when an owner's scan reaches a different
	// owner's ownee before any ownee of its own: the owner regions
	// overlap, which the paper calls improper use of the assertion.
	Improper func(obj vmheap.Ref, scanningOwner int, path func() []vmheap.Ref)
}

// RunOwnershipPhase performs the ownership pre-phase. The regular
// assertion checks (dead, unshared, instance counting) run here too:
// objects marked in this phase are not re-traced by the root scan, so
// their checks must piggyback on this traversal. Paths reported from this
// phase begin at an owner or ownee rather than a root.
func (t *Tracer) RunOwnershipPhase(p *OwnershipPhase) {
	teleStart := t.tele.Begin(telemetry.PhaseOwnership)
	defer t.tele.End(telemetry.PhaseOwnership, teleStart)
	t.owned, t.improper = t.owned[:0], t.improper[:0]

	// Phase 1a: truncated scan from each owner.
	for i, owner := range p.Owners {
		if owner == vmheap.Nil {
			continue
		}
		// Seed the worklist with the owner. Popping it scans its fields
		// without setting its mark bit: the owner must remain eligible
		// for collection if no root reaches it (paper: "we avoid marking
		// the owner object when we do the ownership scan").
		t.stack = append(t.stack[:0], uint32(owner))
		t.drainOwnership(i, owner, p)
	}

	// Improperly-reached ownees are left unmarked during the owner scans so
	// their true owner's scan can still tag them owned. Any still unmarked
	// now were never reached by their own owner — mark and queue them, or
	// the sweep would free reachable objects: their parents were marked by
	// the owner scans, so the root phase cannot rescan the path to them.
	for _, c := range t.improper {
		hd := t.heap.Header(c)
		if hd&vmheap.FlagMark != 0 {
			continue
		}
		t.mark(c, hd)
		t.owned = append(t.owned, c)
	}

	// Phase 1b: resume the truncated scans below each owned ownee.
	t.stack = t.stack[:0]
	for _, e := range t.owned {
		t.stack = append(t.stack, uint32(e))
	}
	t.drainOwnership(0, vmheap.Nil, p)
}

// drainOwnership runs the path-tracking DFS of the ownership phase. With
// curOwner set it is phase 1a, scanning on behalf of owner index cur under
// the owner-region truncation rules; with curOwner Nil it is phase 1b,
// tracing below the queued ownees with ordinary semantics plus the two
// ownership rules described on OwnershipPhase.
func (t *Tracer) drainOwnership(cur int, curOwner vmheap.Ref, p *OwnershipPhase) {
	h := t.heap
	for len(t.stack) > 0 {
		e := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if e&1 != 0 {
			continue
		}
		t.stack = append(t.stack, e|1)
		r := vmheap.Ref(e)
		if t.incScan && r != curOwner {
			// Incremental cycle: this scan is the object's only one (the
			// root phase skips it — it is marked). A seed owner stays
			// untagged: it is left unmarked here, so the root phase scans
			// it again if it is reachable, and the write barrier must
			// stand in for that second scan if a mutator write comes
			// first.
			h.SetFlags(r, vmheap.FlagScanned)
		}

		switch h.KindOf(r) {
		case vmheap.KindScalar:
			for _, off := range t.reg.RefOffsets(h.ClassID(r)) {
				c := h.RefAt(r, uint32(off))
				if c == vmheap.Nil {
					t.stats.RefsScanned++
				} else if t.checkOwnership(c, cur, curOwner, p) {
					h.SetRefAt(r, uint32(off), vmheap.Nil)
				}
			}
		case vmheap.KindRefArray:
			n := h.ArrayLen(r)
			for i := uint32(0); i < n; i++ {
				c := vmheap.Ref(h.ArrayWord(r, i))
				if c == vmheap.Nil {
					t.stats.RefsScanned++
				} else if t.checkOwnership(c, cur, curOwner, p) {
					h.SetArrayWord(r, i, 0)
				}
			}
		}
	}
}

// checkOwnership is the per-encounter logic of the ownership phase (see
// drainOwnership for cur and curOwner). It returns true when the Force
// action requires the caller to null the reference it followed.
func (t *Tracer) checkOwnership(c vmheap.Ref, cur int, curOwner vmheap.Ref, p *OwnershipPhase) bool {
	t.stats.RefsScanned++
	hd := t.heap.Header(c)
	if hd&(vmheap.FlagDead|vmheap.FlagMark) != 0 {
		if force, done := t.seen(c, hd); done {
			return force
		}
	}

	if curOwner == vmheap.Nil {
		// Phase 1b. Never mark an owner from an ownee subtree: back edges
		// into the owning container must not keep a dead owner (and hence
		// its whole region) alive. A root-reachable owner is marked by the
		// root scan.
		if hd&vmheap.FlagOwner != 0 {
			return false
		}
		if hd&vmheap.FlagOwnee != 0 {
			// Unmarked ownee: every owner scan has completed, so its owner
			// did not reach it — report now, because the mark set below
			// would hide it from the root phase's check.
			t.stats.OwneesChecked++
			if hd&vmheap.FlagOwned == 0 && t.checks.Unowned != nil {
				t.checks.Unowned(c, t.pathTo(c))
			}
		}
		t.mark(c, hd)
		t.push(c, hd)
		return false
	}

	// Phase 1a. A back edge to the owner being scanned: never mark it here,
	// so that an owner unreachable from the roots is still collected this
	// cycle.
	if c == curOwner {
		return false
	}

	if hd&vmheap.FlagOwnee != 0 {
		// An ownee truncates the scan. Reached from its own owner it is
		// tagged owned and queued for phase 1b; reached from another
		// owner the regions overlap — improper use. The improper ownee is
		// recorded but left unmarked (its own owner's scan may still be
		// coming and must find it unmarked to tag it owned);
		// RunOwnershipPhase marks and queues any that stay unreached, so
		// the sweep never frees them while this scan's marks hide them
		// from the root phase.
		t.stats.OwneesChecked++
		if owner, ok := p.Ownees.Lookup(uint32(c)); ok && int(owner) == cur {
			t.heap.SetFlags(c, vmheap.FlagOwned)
			t.mark(c, hd)
			t.owned = append(t.owned, c)
		} else {
			if p.Improper != nil {
				p.Improper(c, cur, t.pathTo(c))
			}
			t.improper = append(t.improper, c)
		}
		return false
	}

	t.mark(c, hd)
	if hd&vmheap.FlagOwner != 0 {
		// Another owner: marked (it is reachable from the current owner's
		// region, the paper's documented conservatism) and not pushed; its
		// own scan handles its region. Its slots are therefore scanned
		// exactly once — by its own seed iteration — so under an
		// incremental cycle it is tagged here to keep the write barrier
		// from scanning it a second time.
		if t.incScan {
			t.heap.SetFlags(c, vmheap.FlagScanned)
		}
		return false
	}
	t.push(c, hd)
	return false
}
