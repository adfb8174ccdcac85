package trace

import (
	"testing"

	"repro/internal/report"
	"repro/internal/sidetab"
	"repro/internal/vmheap"
)

// ownershipFixture wires an OwnershipPhase over explicit owner/ownee sets.
type ownershipFixture struct {
	phase    *OwnershipPhase
	improper []vmheap.Ref
}

// newOwnership registers the pairs the way Engine.AssertOwnedBy does —
// FlagOwner on each owner, FlagOwnee on each ownee, the ownee's owner index
// in the table — which is all the tracer reads.
func newOwnership(h *vmheap.Heap, owners []vmheap.Ref, owneeOwner map[vmheap.Ref]int) *ownershipFixture {
	f := &ownershipFixture{}
	f.phase = &OwnershipPhase{
		Owners: owners,
		Ownees: sidetab.NewIndex(),
		Improper: func(obj vmheap.Ref, _ int, _ func() []vmheap.Ref) {
			f.improper = append(f.improper, obj)
		},
	}
	for _, o := range owners {
		if o != vmheap.Nil {
			h.SetFlags(o, vmheap.FlagOwner)
		}
	}
	for r, i := range owneeOwner {
		h.SetFlags(r, vmheap.FlagOwnee)
		f.phase.Ownees.Insert(uint32(r), int32(i))
	}
	return f
}

func TestOwnershipMarksOwnedOwnee(t *testing.T) {
	e := newEnv(t, 4096)
	owner := e.alloc(t)
	mid := e.alloc(t)
	ownee := e.alloc(t)
	e.h.SetRefAt(owner, e.next, mid)
	e.h.SetRefAt(mid, e.next, ownee)
	e.root(owner)

	oo := map[vmheap.Ref]int{ownee: 0}
	fx := newOwnership(e.h, []vmheap.Ref{owner}, oo)

	tr := e.tracer()
	tr.RunOwnershipPhase(fx.phase)

	if e.h.Flags(ownee, vmheap.FlagOwned) == 0 {
		t.Error("ownee not tagged owned")
	}
	if e.h.Flags(owner, vmheap.FlagMark) != 0 {
		t.Error("owner marked during its own scan")
	}
	if e.h.Flags(mid, vmheap.FlagMark) == 0 {
		t.Error("intermediate object not marked")
	}

	// The root phase must see no unowned ownee.
	var unowned int
	tr.SetChecks(Checks{Unowned: func(vmheap.Ref, func() []vmheap.Ref) { unowned++ }})
	tr.TraceInfra(e.roots())
	if unowned != 0 {
		t.Errorf("unowned violations = %d, want 0", unowned)
	}
}

func TestOwnershipDetectsEscapedOwnee(t *testing.T) {
	// Ownee reachable only from outside the owner: violation with path.
	e := newEnv(t, 4096)
	owner := e.alloc(t)
	outsider := e.alloc(t)
	ownee := e.alloc(t)
	e.h.SetRefAt(outsider, e.next, ownee) // only path: outsider -> ownee
	e.root(owner)
	e.root(outsider)

	oo := map[vmheap.Ref]int{ownee: 0}
	fx := newOwnership(e.h, []vmheap.Ref{owner}, oo)

	tr := e.tracer()
	tr.RunOwnershipPhase(fx.phase)

	var gotPath []vmheap.Ref
	tr.SetChecks(Checks{
		Unowned: func(obj vmheap.Ref, path func() []vmheap.Ref) {
			if obj != ownee {
				t.Errorf("unowned = %d, want %d", obj, ownee)
			}
			gotPath = path()
		},
	})
	tr.TraceInfra(e.roots())
	if len(gotPath) != 2 || gotPath[0] != outsider || gotPath[1] != ownee {
		t.Errorf("path = %v, want [%d %d]", gotPath, outsider, ownee)
	}
}

func TestOwnershipOwneeSubtreeTraced(t *testing.T) {
	// Objects hanging off an ownee are traced after the owner scans
	// (the queue-processing step), so they are marked.
	e := newEnv(t, 4096)
	owner := e.alloc(t)
	ownee := e.alloc(t)
	leaf := e.alloc(t)
	e.h.SetRefAt(owner, e.next, ownee)
	e.h.SetRefAt(ownee, e.next, leaf)
	e.root(owner)

	oo := map[vmheap.Ref]int{ownee: 0}
	fx := newOwnership(e.h, []vmheap.Ref{owner}, oo)

	tr := e.tracer()
	tr.RunOwnershipPhase(fx.phase)
	if e.h.Flags(leaf, vmheap.FlagMark) == 0 {
		t.Error("ownee subtree not traced")
	}
}

func TestOwnershipBackEdgeDoesNotMarkOwner(t *testing.T) {
	// ownee -> owner back edge (e.g. element pointing to its container)
	// must not mark the owner; an unrooted owner is collected this GC.
	e := newEnv(t, 4096)
	owner := e.alloc(t)
	ownee := e.alloc(t)
	e.h.SetRefAt(owner, e.next, ownee)
	e.h.SetRefAt(ownee, e.next, owner) // back edge

	oo := map[vmheap.Ref]int{ownee: 0}
	fx := newOwnership(e.h, []vmheap.Ref{owner}, oo)

	tr := e.tracer()
	tr.RunOwnershipPhase(fx.phase)
	if e.h.Flags(owner, vmheap.FlagMark) != 0 {
		t.Error("back edge marked the owner")
	}
	// With no roots at all, a sweep reclaims the owner but keeps the
	// ownee until the next GC — the paper's documented extra-cycle cost.
	tr.TraceInfra(e.roots()) // no roots registered
	st := e.h.Sweep(vmheap.SweepOptions{})
	if st.FreedObjects != 1 {
		t.Errorf("FreedObjects = %d, want 1 (just the owner)", st.FreedObjects)
	}
	if !e.h.IsObject(ownee) {
		t.Error("ownee reclaimed in the same cycle as its owner scan")
	}
}

func TestOwnershipImproperOverlap(t *testing.T) {
	// Owner A's region reaches an ownee of owner B: improper use.
	e := newEnv(t, 4096)
	ownerA := e.alloc(t)
	ownerB := e.alloc(t)
	owneeB := e.alloc(t)
	e.h.SetRefAt(ownerA, e.next, owneeB)
	e.h.SetRefAt(ownerB, e.next, owneeB)
	e.root(ownerA)
	e.root(ownerB)

	oo := map[vmheap.Ref]int{owneeB: 1}
	fx := newOwnership(e.h, []vmheap.Ref{ownerA, ownerB}, oo)

	tr := e.tracer()
	tr.RunOwnershipPhase(fx.phase)
	if len(fx.improper) != 1 || fx.improper[0] != owneeB {
		t.Errorf("improper = %v, want [%d]", fx.improper, owneeB)
	}
	// Scanned-first by A (improper, not tagged), B's scan then finds it
	// unmarked? No: A's scan did not mark it, so B's scan tags it owned.
	if e.h.Flags(owneeB, vmheap.FlagOwned) == 0 {
		t.Error("ownee not eventually owned by its true owner")
	}
}

func TestOwnershipTruncatesAtOtherOwner(t *testing.T) {
	// owner A -> owner B -> x: A's scan marks B but does not descend;
	// x is marked by B's own scan.
	e := newEnv(t, 4096)
	ownerA := e.alloc(t)
	ownerB := e.alloc(t)
	x := e.alloc(t)
	e.h.SetRefAt(ownerA, e.next, ownerB)
	e.h.SetRefAt(ownerB, e.next, x)

	fx := newOwnership(e.h, []vmheap.Ref{ownerA, ownerB}, map[vmheap.Ref]int{})

	tr := e.tracer()
	tr.RunOwnershipPhase(fx.phase)
	if e.h.Flags(ownerB, vmheap.FlagMark) == 0 {
		t.Error("other owner not marked at truncation")
	}
	if e.h.Flags(x, vmheap.FlagMark) == 0 {
		t.Error("second owner's region not scanned by its own scan")
	}
}

func TestOwnershipNilOwnerSkipped(t *testing.T) {
	e := newEnv(t, 4096)
	fx := newOwnership(e.h, []vmheap.Ref{vmheap.Nil}, map[vmheap.Ref]int{})
	tr := e.tracer()
	tr.RunOwnershipPhase(fx.phase) // must not panic
	if tr.Stats().Visited != 0 {
		t.Errorf("Visited = %d, want 0", tr.Stats().Visited)
	}
}

func TestOwnershipDeadCheckDuringPhase(t *testing.T) {
	// Dead-asserted objects inside an owner region are still checked:
	// the ownership phase marks them, so the root phase would miss them.
	e := newEnv(t, 4096)
	owner := e.alloc(t)
	victim := e.alloc(t)
	e.h.SetRefAt(owner, e.next, victim)
	e.h.SetFlags(victim, vmheap.FlagDead)
	e.root(owner)

	var hits int
	tr := e.tracer()
	tr.SetChecks(Checks{
		Dead: func(obj vmheap.Ref, path func() []vmheap.Ref) report.Action {
			hits++
			p := path()
			// Path starts at the owner, not a root.
			if len(p) != 2 || p[0] != owner || p[1] != victim {
				t.Errorf("phase-1 path = %v", p)
			}
			return report.Continue
		},
	})
	fx := newOwnership(e.h, []vmheap.Ref{owner}, map[vmheap.Ref]int{})
	tr.RunOwnershipPhase(fx.phase)
	if hits != 1 {
		t.Errorf("dead hits in ownership phase = %d, want 1", hits)
	}
}

func TestOwnershipCrossRegionViaOwneeSubtree(t *testing.T) {
	// ownerA -> owneeA -> shared -> owneeB, where owneeB is properly in
	// ownerB's region too. The reference out of owneeA's subtree must NOT
	// count as overlap (no improper warning) and owneeB is owned.
	e := newEnv(t, 4096)
	ownerA, ownerB := e.alloc(t), e.alloc(t)
	owneeA, owneeB := e.alloc(t), e.alloc(t)
	shared := e.alloc(t)
	e.h.SetRefAt(ownerA, e.next, owneeA)
	e.h.SetRefAt(owneeA, e.next, shared)
	e.h.SetRefAt(shared, e.next, owneeB)
	e.h.SetRefAt(ownerB, e.next, owneeB)
	e.root(ownerA)
	e.root(ownerB)

	oo := map[vmheap.Ref]int{owneeA: 0, owneeB: 1}
	fx := newOwnership(e.h, []vmheap.Ref{ownerA, ownerB}, oo)

	tr := e.tracer()
	var unowned int
	tr.SetChecks(Checks{Unowned: func(vmheap.Ref, func() []vmheap.Ref) { unowned++ }})
	tr.RunOwnershipPhase(fx.phase)
	tr.TraceInfra(e.roots())

	if len(fx.improper) != 0 {
		t.Errorf("cross-region reference via ownee subtree flagged improper: %v", fx.improper)
	}
	if unowned != 0 {
		t.Errorf("unowned violations = %d, want 0", unowned)
	}
	if e.h.Flags(owneeB, vmheap.FlagOwned) == 0 {
		t.Error("owneeB not owned")
	}
}

func TestOwnershipLeakedOwneeFoundInOwneeSubtree(t *testing.T) {
	// ownerA -> owneeA -> holder -> leaked, where leaked is an ownee of
	// ownerB but no longer reachable from ownerB: phase 1b must report it
	// even though its mark would hide it from the root scan.
	e := newEnv(t, 4096)
	ownerA, ownerB := e.alloc(t), e.alloc(t)
	owneeA, leaked := e.alloc(t), e.alloc(t)
	holder := e.alloc(t)
	e.h.SetRefAt(ownerA, e.next, owneeA)
	e.h.SetRefAt(owneeA, e.next, holder)
	e.h.SetRefAt(holder, e.next, leaked) // only path to leaked
	e.root(ownerA)
	e.root(ownerB)

	oo := map[vmheap.Ref]int{owneeA: 0, leaked: 1}
	fx := newOwnership(e.h, []vmheap.Ref{ownerA, ownerB}, oo)

	tr := e.tracer()
	var got []vmheap.Ref
	tr.SetChecks(Checks{Unowned: func(obj vmheap.Ref, _ func() []vmheap.Ref) {
		got = append(got, obj)
	}})
	tr.RunOwnershipPhase(fx.phase)
	tr.TraceInfra(e.roots())
	if len(got) != 1 || got[0] != leaked {
		t.Errorf("unowned = %v, want [%d]", got, leaked)
	}
}

func TestOwnershipInstanceCountingInPhase(t *testing.T) {
	e := newEnv(t, 4096)
	e.reg.SetInstanceLimit(e.node, 0, false)
	owner := e.alloc(t)
	inner := e.alloc(t)
	e.h.SetRefAt(owner, e.next, inner)
	e.root(owner)

	tr := e.tracer()
	fx := newOwnership(e.h, []vmheap.Ref{owner}, map[vmheap.Ref]int{})
	tr.RunOwnershipPhase(fx.phase)
	tr.TraceInfra(e.roots())
	over := e.reg.CheckLimits()
	// owner + inner are both live Nodes: count must be 2, not 1 — the
	// phase-1-marked object must not escape counting.
	if len(over) != 1 || over[0].Count != 2 {
		t.Errorf("count across phases = %+v, want 2", over)
	}
}
