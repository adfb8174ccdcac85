package assertions

import (
	"slices"
	"testing"

	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// env bundles an engine with its substrate for direct tests.
type env struct {
	h   *vmheap.Heap
	reg *classes.Registry
	rec *report.Recorder
	// queue stands for a thread's open region queue: the engine's purge
	// hook filters it.
	queue []vmheap.Ref
	e     *Engine

	node *classes.Class
	next uint32
}

func newEnv(t testing.TB) *env {
	t.Helper()
	e := &env{
		h:   vmheap.New(1 << 14),
		reg: classes.NewRegistry(),
		rec: &report.Recorder{},
	}
	e.node = e.reg.MustDefine("Node", nil,
		classes.Field{Name: "next", Kind: classes.RefKind})
	e.next = uint32(e.node.MustFieldIndex("next"))
	e.e = New(e.h, e.reg, e.purge, e.rec)
	return e
}

// purge is the region-queue hook a runtime gives the engine.
func (e *env) purge(keep func(vmheap.Ref) bool) {
	e.queue = slices.DeleteFunc(e.queue, func(r vmheap.Ref) bool { return !keep(r) })
}

func (e *env) alloc(t testing.TB) vmheap.Ref {
	t.Helper()
	r, err := e.h.Alloc(vmheap.KindScalar, e.node.ID, e.node.FieldWords)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAssertDeadSetsBit(t *testing.T) {
	e := newEnv(t)
	r := e.alloc(t)
	if err := e.e.AssertDead(r); err != nil {
		t.Fatal(err)
	}
	if e.h.Flags(r, vmheap.FlagDead) == 0 {
		t.Error("dead bit not set")
	}
	if e.e.Stats().DeadAsserts != 1 {
		t.Error("counter not bumped")
	}
}

func TestAssertOnBadRefErrors(t *testing.T) {
	e := newEnv(t)
	if err := e.e.AssertDead(vmheap.Nil); err == nil {
		t.Error("AssertDead(Nil) accepted")
	}
	if err := e.e.AssertUnshared(vmheap.Nil); err == nil {
		t.Error("AssertUnshared(Nil) accepted")
	}
	r := e.alloc(t)
	if err := e.e.AssertOwnedBy(vmheap.Nil, r); err == nil {
		t.Error("nil owner accepted")
	}
	if err := e.e.AssertOwnedBy(r, vmheap.Nil); err == nil {
		t.Error("nil ownee accepted")
	}
}

func TestAssertUnsharedSetsBit(t *testing.T) {
	e := newEnv(t)
	r := e.alloc(t)
	if err := e.e.AssertUnshared(r); err != nil {
		t.Fatal(err)
	}
	if e.h.Flags(r, vmheap.FlagUnshared) == 0 {
		t.Error("unshared bit not set")
	}
}

func TestAssertInstancesNegativeLimit(t *testing.T) {
	e := newEnv(t)
	if err := e.e.AssertInstances(e.node, -1, false); err == nil {
		t.Error("negative limit accepted")
	}
}

func TestAssertOwnedBySetsBitsAndTables(t *testing.T) {
	e := newEnv(t)
	owner := e.alloc(t)
	a, b := e.alloc(t), e.alloc(t)
	if err := e.e.AssertOwnedBy(owner, a); err != nil {
		t.Fatal(err)
	}
	if err := e.e.AssertOwnedBy(owner, b); err != nil {
		t.Fatal(err)
	}
	if e.h.Flags(owner, vmheap.FlagOwner) == 0 {
		t.Error("owner bit not set")
	}
	if e.h.Flags(a, vmheap.FlagOwnee) == 0 {
		t.Error("ownee bit not set")
	}
	if e.e.NumOwners() != 1 {
		t.Errorf("NumOwners = %d", e.e.NumOwners())
	}
	if e.e.NumOwnees() != 2 {
		t.Errorf("NumOwnees = %d", e.e.NumOwnees())
	}
	if !e.e.HasOwnership() {
		t.Error("HasOwnership false")
	}

	idx, ok := e.e.ownees.Get(uint32(a))
	if !ok || e.e.OwnershipPhase().Owners[idx] != owner {
		t.Error("ownee lookup wrong")
	}
	if _, ok := e.e.ownees.Get(uint32(owner)); ok {
		t.Error("owner found in ownee table")
	}
}

func TestOwnerOfBoundaries(t *testing.T) {
	e := newEnv(t)
	owner := e.alloc(t)
	var ownees []vmheap.Ref
	for i := 0; i < 33; i++ {
		r := e.alloc(t)
		if err := e.e.AssertOwnedBy(owner, r); err != nil {
			t.Fatal(err)
		}
		ownees = append(ownees, r)
	}
	for _, r := range ownees {
		if _, ok := e.e.ownees.Get(uint32(r)); !ok {
			t.Errorf("ownee %d not found", r)
		}
	}
	// Probes around the table: below the first, above the last, between.
	if _, ok := e.e.ownees.Get(2); ok && e.h.Flags(vmheap.Ref(2), vmheap.FlagOwnee) == 0 {
		t.Error("phantom hit below table")
	}
	if _, ok := e.e.ownees.Get(1 << 30); ok {
		t.Error("phantom hit above table")
	}
}

func TestDispatchHaltDeferred(t *testing.T) {
	e := newEnv(t)
	e.e.SetHandler(report.HandlerFunc(func(*report.Violation) report.Action {
		return report.Halt
	}))
	e.e.BeginCycle()
	act := e.e.onDead(e.alloc(t), func() []vmheap.Ref { return nil })
	if act != report.Continue {
		t.Errorf("halt leaked to tracer: %v", act)
	}
	if e.e.Halted() == nil {
		t.Error("halt not recorded")
	}
	e.e.BeginCycle()
	if e.e.Halted() != nil {
		t.Error("halt survived BeginCycle")
	}
}

func TestOnDeadActionCachedPerObject(t *testing.T) {
	e := newEnv(t)
	calls := 0
	e.e.SetHandler(report.HandlerFunc(func(*report.Violation) report.Action {
		calls++
		return report.Force
	}))
	e.e.BeginCycle()
	obj := e.alloc(t)
	path := func() []vmheap.Ref { return []vmheap.Ref{obj} }
	a1 := e.e.onDead(obj, path)
	a2 := e.e.onDead(obj, path)
	if calls != 1 {
		t.Errorf("handler called %d times, want 1", calls)
	}
	if a1 != report.Force || a2 != report.Force {
		t.Error("cached action differs")
	}
	// A new cycle consults the handler again.
	e.e.BeginCycle()
	e.e.onDead(obj, path)
	if calls != 2 {
		t.Errorf("handler calls after new cycle = %d, want 2", calls)
	}
}

func TestRegionViolationKind(t *testing.T) {
	e := newEnv(t)
	e.e.StartRegion()
	obj := e.alloc(t)
	e.e.AssertAllDead([]vmheap.Ref{obj})
	if e.h.Flags(obj, vmheap.FlagDead) == 0 {
		t.Error("region object not marked dead")
	}
	e.e.BeginCycle()
	e.e.onDead(obj, func() []vmheap.Ref { return []vmheap.Ref{obj} })
	vs := e.rec.ByKind(report.RegionSurvivor)
	if len(vs) != 1 {
		t.Fatalf("RegionSurvivor violations = %d", len(vs))
	}
}

func TestPreSweepPurgesDyingOwnee(t *testing.T) {
	e := newEnv(t)
	owner := e.alloc(t)
	ownee := e.alloc(t)
	e.e.AssertOwnedBy(owner, ownee)
	// Owner survives, ownee dies.
	e.h.SetFlags(owner, vmheap.FlagMark)
	e.e.PreSweep()
	if e.e.NumOwnees() != 0 {
		t.Error("dying ownee not purged")
	}
	if e.e.NumOwners() != 1 {
		t.Error("live owner purged")
	}
}

func TestPreSweepPurgesDeadOwner(t *testing.T) {
	e := newEnv(t)
	owner := e.alloc(t)
	ownee := e.alloc(t)
	e.e.AssertOwnedBy(owner, ownee)
	// Ownee survives, owner dies: the pair is dropped and the stale
	// ownee bit cleared.
	e.h.SetFlags(ownee, vmheap.FlagMark)
	e.e.PreSweep()
	if e.e.NumOwnees() != 0 {
		t.Error("orphan pair not dropped")
	}
	if e.h.Flags(ownee, vmheap.FlagOwnee) != 0 {
		t.Error("stale ownee bit not cleared")
	}
	if e.e.OwnershipPhase() != nil {
		t.Error("phase still reported with no pairs")
	}
}

func TestPreSweepPurgesRegionQueues(t *testing.T) {
	e := newEnv(t)
	e.e.StartRegion()
	dying := e.alloc(t)
	surviving := e.alloc(t)
	e.queue = []vmheap.Ref{dying, surviving}
	e.h.SetFlags(surviving, vmheap.FlagMark)
	e.e.PreSweep()
	if len(e.queue) != 1 || e.queue[0] != surviving {
		t.Errorf("queue after purge = %v", e.queue)
	}
}

func TestChecksWiring(t *testing.T) {
	e := newEnv(t)
	c := e.e.Checks()
	if c.Dead == nil || c.Shared == nil || c.Unowned == nil {
		t.Error("checks not fully wired")
	}
	var _ trace.Checks = c
}

func TestCheckInstanceLimitsDispatch(t *testing.T) {
	e := newEnv(t)
	e.e.AssertInstances(e.node, 0, false)
	e.reg.CountInstance(e.node.ID)
	e.e.BeginCycle()
	e.e.CheckInstanceLimits()
	vs := e.rec.ByKind(report.TooManyInstances)
	if len(vs) != 1 || vs[0].Count != 1 || vs[0].Limit != 0 {
		t.Errorf("violations = %+v", vs)
	}
}

func TestOnSharedDedupePerCycle(t *testing.T) {
	e := newEnv(t)
	obj := e.alloc(t)
	path := func() []vmheap.Ref { return []vmheap.Ref{obj} }
	e.e.BeginCycle()
	e.e.onShared(obj, path)
	e.e.onShared(obj, path) // third encounter: same cycle, no re-report
	if got := len(e.rec.ByKind(report.SharedObject)); got != 1 {
		t.Errorf("shared reports = %d, want 1", got)
	}
	e.e.BeginCycle()
	e.e.onShared(obj, path)
	if got := len(e.rec.ByKind(report.SharedObject)); got != 2 {
		t.Errorf("shared reports after new cycle = %d, want 2", got)
	}
}

func TestOnUnownedNamesOwner(t *testing.T) {
	e := newEnv(t)
	owner := e.alloc(t)
	ownee := e.alloc(t)
	if err := e.e.AssertOwnedBy(owner, ownee); err != nil {
		t.Fatal(err)
	}
	e.e.BeginCycle()
	e.e.onUnowned(ownee, func() []vmheap.Ref { return []vmheap.Ref{ownee} })
	vs := e.rec.ByKind(report.UnownedOwnee)
	if len(vs) != 1 {
		t.Fatalf("unowned reports = %d", len(vs))
	}
	if vs[0].Owner != "Node" {
		t.Errorf("owner name = %q, want Node", vs[0].Owner)
	}
}

func TestOnImproperSuppressesUnowned(t *testing.T) {
	e := newEnv(t)
	owner := e.alloc(t)
	ownee := e.alloc(t)
	e.e.AssertOwnedBy(owner, ownee)
	e.e.BeginCycle()
	path := func() []vmheap.Ref { return []vmheap.Ref{ownee} }
	e.e.onImproper(ownee, 0, path)
	e.e.onImproper(ownee, 0, path) // deduped
	e.e.onUnowned(ownee, path)     // suppressed after improper
	if got := len(e.rec.ByKind(report.ImproperOwnership)); got != 1 {
		t.Errorf("improper reports = %d, want 1", got)
	}
	if got := len(e.rec.ByKind(report.UnownedOwnee)); got != 0 {
		t.Errorf("unowned after improper = %d, want 0", got)
	}
}

func TestSweepFlagsAndLimitAccess(t *testing.T) {
	e := newEnv(t)
	if e.e.SweepFlags()&vmheap.FlagOwned == 0 {
		t.Error("SweepFlags missing FlagOwned")
	}
	e.e.AssertInstances(e.node, 7, false)
	if got := e.e.InstanceLimitFor(e.node); got != 7 {
		t.Errorf("InstanceLimitFor = %d", got)
	}
}

func TestOnUnownedDedupePerCycle(t *testing.T) {
	// Regression: onUnowned checked the improper table but never recorded
	// its own report, so a second root-phase encounter of the same unowned
	// ownee (root scan + ownee-subtree drain) warned twice in one cycle.
	e := newEnv(t)
	owner := e.alloc(t)
	ownee := e.alloc(t)
	if err := e.e.AssertOwnedBy(owner, ownee); err != nil {
		t.Fatal(err)
	}
	path := func() []vmheap.Ref { return []vmheap.Ref{ownee} }
	e.e.BeginCycle()
	e.e.onUnowned(ownee, path)
	e.e.onUnowned(ownee, path) // same cycle: no re-report
	if got := len(e.rec.ByKind(report.UnownedOwnee)); got != 1 {
		t.Errorf("unowned reports = %d, want 1", got)
	}
	// An unowned report also suppresses a later improper one —
	// the two phases share a dedupe domain.
	e.e.onImproper(ownee, 0, path)
	if got := len(e.rec.ByKind(report.ImproperOwnership)); got != 0 {
		t.Errorf("improper after unowned = %d, want 0", got)
	}
	e.e.BeginCycle()
	e.e.onUnowned(ownee, path)
	if got := len(e.rec.ByKind(report.UnownedOwnee)); got != 2 {
		t.Errorf("unowned after new cycle = %d, want 2", got)
	}
}
