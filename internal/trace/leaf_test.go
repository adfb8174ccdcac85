package trace

import (
	"reflect"
	"testing"

	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/vmheap"
)

// A data array never enters the worklist of a stop-the-world trace (see
// Tracer.push). These tests pin what must not change because of that: every
// check on the array itself still runs at each encounter, with the path the
// worklist spelled out at that moment.

// leaf allocates a data array standing in for a string.
func (e *testEnv) leaf(t testing.TB) vmheap.Ref {
	t.Helper()
	r, err := e.h.Alloc(vmheap.KindDataArray, classes.DataArrayClassID, 3)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// twoHolders roots two nodes whose next fields both point at one leaf.
func (e *testEnv) twoHolders(t testing.TB) (a, b, s vmheap.Ref) {
	a, b, s = e.alloc(t), e.alloc(t), e.leaf(t)
	e.h.SetRefAt(a, e.next, s)
	e.h.SetRefAt(b, e.next, s)
	e.root(a)
	e.root(b)
	return a, b, s
}

func TestLeafDeadHitPerSlotWithPath(t *testing.T) {
	e := newEnv(t, 4096)
	a, b, s := e.twoHolders(t)
	e.h.SetFlags(s, vmheap.FlagDead)

	var paths [][]vmheap.Ref
	tr := e.tracer()
	tr.SetChecks(Checks{
		Dead: func(obj vmheap.Ref, path func() []vmheap.Ref) report.Action {
			if obj != s {
				t.Errorf("dead check on %d, want %d", obj, s)
			}
			paths = append(paths, path())
			return report.Continue
		},
	})
	tr.TraceInfra(e.roots())

	// One callout per incoming slot (the engine reports the first and
	// replays its action for the second), each with the holder's path.
	want := [][]vmheap.Ref{{b, s}, {a, s}} // roots drain last-in first-out
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("paths = %v, want %v", paths, want)
	}
	if st := tr.Stats(); st.DeadHits != 2 || st.Visited != 3 {
		t.Errorf("DeadHits = %d, Visited = %d, want 2, 3", st.DeadHits, st.Visited)
	}
	if e.h.Flags(s, vmheap.FlagMark) == 0 {
		t.Error("leaf not marked under Continue")
	}
}

func TestLeafForceNullsEverySlotAndIsSwept(t *testing.T) {
	e := newEnv(t, 4096)
	a, b, s := e.twoHolders(t)
	e.h.SetFlags(s, vmheap.FlagDead)

	tr := e.tracer()
	tr.SetChecks(Checks{
		Dead: func(vmheap.Ref, func() []vmheap.Ref) report.Action { return report.Force },
	})
	tr.TraceInfra(e.roots())

	if e.h.RefAt(a, e.next) != vmheap.Nil || e.h.RefAt(b, e.next) != vmheap.Nil {
		t.Error("Force left a slot pointing at the leaf")
	}
	if tr.Stats().ForcedRefs != 2 {
		t.Errorf("ForcedRefs = %d, want 2", tr.Stats().ForcedRefs)
	}
	if st := e.h.Sweep(vmheap.SweepOptions{}); st.FreedObjects != 1 {
		t.Errorf("FreedObjects = %d, want 1 (the leaf)", st.FreedObjects)
	}
}

func TestLeafUnsharedFiresOnSecondEncounter(t *testing.T) {
	e := newEnv(t, 4096)
	a, _, s := e.twoHolders(t)
	e.h.SetFlags(s, vmheap.FlagUnshared)

	var paths [][]vmheap.Ref
	tr := e.tracer()
	tr.SetChecks(Checks{
		Shared: func(obj vmheap.Ref, path func() []vmheap.Ref) {
			paths = append(paths, path())
		},
	})
	tr.TraceInfra(e.roots())

	if want := [][]vmheap.Ref{{a, s}}; !reflect.DeepEqual(paths, want) {
		t.Errorf("shared paths = %v, want %v (the second path only)", paths, want)
	}
	if tr.Stats().SharedHits != 1 {
		t.Errorf("SharedHits = %d, want 1", tr.Stats().SharedHits)
	}
}

func TestLeafClassCountsTowardInstanceLimit(t *testing.T) {
	e := newEnv(t, 4096)
	e.twoHolders(t)
	extra := e.alloc(t)
	e.h.SetRefAt(extra, e.next, e.leaf(t))
	e.root(extra)
	data := e.reg.ByID(classes.DataArrayClassID)
	e.reg.SetInstanceLimit(data, 1, false)

	e.tracer().TraceInfra(e.roots())

	over := e.reg.CheckLimits()
	if len(over) != 1 || over[0].Class != data || over[0].Count != 2 {
		t.Errorf("CheckLimits = %+v, want data[] over its limit with 2 live", over)
	}
}

// The ownership phase applies the same rule: a leaf below an ownee is
// checked where it is met, in phase 1b, with a path that starts at the ownee.
func TestLeafBelowOwneeCheckedInOwnershipPhase(t *testing.T) {
	e := newEnv(t, 4096)
	owner, ownee, s := e.alloc(t), e.alloc(t), e.leaf(t)
	e.h.SetRefAt(owner, e.next, ownee)
	e.h.SetRefAt(ownee, e.next, s)
	e.h.SetRefAt(ownee, e.other, s)
	e.h.SetFlags(s, vmheap.FlagDead)
	e.root(owner)
	fx := newOwnership(e.h, []vmheap.Ref{owner}, map[vmheap.Ref]int{ownee: 0})

	var paths [][]vmheap.Ref
	tr := e.tracer()
	tr.SetChecks(Checks{
		Dead: func(_ vmheap.Ref, path func() []vmheap.Ref) report.Action {
			paths = append(paths, path())
			return report.Continue
		},
	})
	tr.RunOwnershipPhase(fx.phase)
	tr.TraceInfra(e.roots())

	if want := [][]vmheap.Ref{{ownee, s}, {ownee, s}}; !reflect.DeepEqual(paths, want) {
		t.Errorf("paths = %v, want %v", paths, want)
	}
	if st := tr.Stats(); st.DeadHits != 2 || st.Visited != 3 {
		t.Errorf("DeadHits = %d, Visited = %d, want 2, 3", st.DeadHits, st.Visited)
	}
}

// TraceBase skips leaves the same way; its counts must still include them.
func TestLeafBaseLoopCountsButDoesNotScan(t *testing.T) {
	e := newEnv(t, 4096)
	a, _, s := e.twoHolders(t)
	tr := e.tracer()
	tr.TraceBase(e.roots())
	if e.h.Flags(s, vmheap.FlagMark) == 0 {
		t.Error("leaf not marked")
	}
	words := 2*uint64(e.h.SizeWords(a)) + uint64(e.h.SizeWords(s))
	if st := tr.Stats(); st.Visited != 3 || st.VisitedWords != words || st.RefsScanned != 4 {
		t.Errorf("Visited = %d, VisitedWords = %d, RefsScanned = %d, want 3, %d, 4",
			st.Visited, st.VisitedWords, st.RefsScanned, words)
	}
}
