package assertions

import (
	"testing"

	"repro/internal/report"
	"repro/internal/vmheap"
)

// Regression: a freed region object's region standing must not survive the
// sweep that reclaims it. When standing lived in a side table keyed by Ref,
// any sweep that missed the table's purge (a sweep driven without PreSweep,
// or with a different liveness predicate) left the entry behind, and an
// allocation recycling the same Ref inherited it: a plain assert-dead on
// the NEW object was then misreported as an assert-alldead (RegionSurvivor)
// violation. Standing is now a header bit, freed with the object, so no
// sweep needs to cooperate.
func TestRecycledRefDoesNotInheritRegionStanding(t *testing.T) {
	e := newEnv(t)

	// Region bracket around one allocation; assert-alldead gives the object
	// region standing and the dead bit.
	e.e.StartRegion()
	old := e.alloc(t)
	e.e.AssertAllDead([]vmheap.Ref{old})

	// The object is unreachable; a bare sweep — no PreSweep, no hook —
	// reclaims it.
	e.h.Sweep(vmheap.SweepOptions{})

	// The next allocation of the same size recycles the address: the heap
	// held a single object, so after the sweep its free space starts where
	// the old object sat.
	fresh := e.alloc(t)
	if fresh != old {
		t.Fatalf("allocator did not recycle the Ref (old %d, new %d); the scenario needs address reuse", old, fresh)
	}

	// A plain assert-dead on the new object, violated: the report must say
	// assert-dead, not assert-alldead — the new object was never allocated
	// in any region.
	if err := e.e.AssertDead(fresh); err != nil {
		t.Fatal(err)
	}
	e.e.BeginCycle()
	e.e.onDead(fresh, func() []vmheap.Ref { return []vmheap.Ref{fresh} })
	if vs := e.rec.ByKind(report.RegionSurvivor); len(vs) != 0 {
		t.Fatalf("recycled Ref misreported as RegionSurvivor: %v", vs[0])
	}
	if vs := e.rec.ByKind(report.DeadReachable); len(vs) != 1 {
		t.Fatalf("DeadReachable violations = %d, want 1", len(vs))
	}
}

// AssertAllDead's skip path for queue entries that no longer name objects
// must also drop any region standing recorded under that Ref.
func TestAssertAllDeadSkipPathPurgesStaleEntry(t *testing.T) {
	e := newEnv(t)

	// First bracket: give obj region standing.
	e.e.StartRegion()
	obj := e.alloc(t)
	e.e.AssertAllDead([]vmheap.Ref{obj})

	// Second bracket records the same Ref, but by the time assert-alldead
	// runs the object has been reclaimed.
	e.e.StartRegion()
	e.h.Sweep(vmheap.SweepOptions{})
	e.e.AssertAllDead([]vmheap.Ref{obj})

	fresh := e.alloc(t)
	if fresh != obj {
		t.Fatalf("allocator did not recycle the Ref (old %d, new %d)", obj, fresh)
	}
	if err := e.e.AssertDead(fresh); err != nil {
		t.Fatal(err)
	}
	e.e.BeginCycle()
	e.e.onDead(fresh, func() []vmheap.Ref { return []vmheap.Ref{fresh} })
	if vs := e.rec.ByKind(report.RegionSurvivor); len(vs) != 0 {
		t.Fatalf("stale entry survived the skip path: %v", vs[0])
	}
}
