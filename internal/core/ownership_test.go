package core

import (
	"testing"

	"repro/internal/report"
)

// ownershipWorld models the paper's running example: elements stored in a
// main container (the owner) and cached in a hash-table-like side structure.
type ownershipWorld struct {
	rt        *Runtime
	th        *Thread
	container *Class
	cache     *Class
	elem      *Class
	contArr   uint16 // container.elements -> ref array
	cacheArr  uint16
}

func newOwnershipWorld(t *testing.T) *ownershipWorld {
	t.Helper()
	rt := newRT(t, 1<<14)
	w := &ownershipWorld{
		rt:        rt,
		th:        rt.MainThread(),
		container: rt.DefineClass("Container", RefField("elements")),
		cache:     rt.DefineClass("Cache", RefField("entries")),
		elem:      rt.DefineClass("Element", DataField("id")),
	}
	w.contArr = w.container.MustFieldIndex("elements")
	w.cacheArr = w.cache.MustFieldIndex("entries")
	return w
}

// holder allocates an instance of c into g, with a reference array of n
// elements in its field off, and returns both.
func (w *ownershipWorld) holder(g *Global, c *Class, off uint16, n int) (obj, arr Ref) {
	f := w.th.PushFrame(1)
	defer w.th.PopFrame()
	obj = f.New(0, c)
	g.Set(obj)
	arr = f.NewRefArray(0, n)
	w.rt.SetRef(obj, off, arr)
	return obj, arr
}

func TestAssertOwnedByHolds(t *testing.T) {
	w := newOwnershipWorld(t)
	rt, th := w.rt, w.th

	cont, arr := w.holder(rt.AddGlobal("container"), w.container, w.contArr, 8)

	_, carr := w.holder(rt.AddGlobal("cache"), w.cache, w.cacheArr, 8)

	for i := 0; i < 8; i++ {
		e := th.New(w.elem)
		rt.ArrSetRef(arr, i, e)
		rt.ArrSetRef(carr, i, e) // cached too: extra paths are fine
		if err := rt.AssertOwnedBy(cont, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Violations()); n != 0 {
		for _, v := range rt.Violations() {
			t.Log(v.Format())
		}
		t.Fatalf("violations = %d, want 0", n)
	}
}

func TestAssertOwnedByDetectsLeakViaCache(t *testing.T) {
	// The paper's leak pattern: element removed from its container but
	// still cached — reachable only through the cache.
	w := newOwnershipWorld(t)
	rt, th := w.rt, w.th

	cont, arr := w.holder(rt.AddGlobal("container"), w.container, w.contArr, 4)

	_, carr := w.holder(rt.AddGlobal("cache"), w.cache, w.cacheArr, 4)

	e := th.New(w.elem)
	rt.ArrSetRef(arr, 0, e)
	rt.ArrSetRef(carr, 0, e)
	rt.AssertOwnedBy(cont, e)

	// "Remove" from the container only.
	rt.ArrSetRef(arr, 0, Nil)
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	vs := rt.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1", len(vs))
	}
	v := vs[0]
	if v.Kind != report.UnownedOwnee {
		t.Errorf("kind = %v", v.Kind)
	}
	if v.Owner != "Container" {
		t.Errorf("owner = %q", v.Owner)
	}
	// Path must run through the cache.
	foundCache := false
	for _, e := range v.Path {
		if e.Class == "Cache" {
			foundCache = true
		}
	}
	if !foundCache {
		t.Errorf("path does not show the leaking cache: %+v", v.Path)
	}
}

func TestAssertOwnedByOwneeDiesCleanly(t *testing.T) {
	// An ownee that becomes fully unreachable is no violation; its table
	// entry must be purged.
	w := newOwnershipWorld(t)
	rt, th := w.rt, w.th

	cont, arr := w.holder(rt.AddGlobal("container"), w.container, w.contArr, 1)

	e := th.New(w.elem)
	rt.ArrSetRef(arr, 0, e)
	rt.AssertOwnedBy(cont, e)
	if rt.Stats().Asserts.OwneesLive != 1 {
		t.Fatalf("OwneesLive = %d", rt.Stats().Asserts.OwneesLive)
	}

	rt.ArrSetRef(arr, 0, Nil) // now fully unreachable
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Violations()); n != 0 {
		t.Errorf("violations = %d, want 0", n)
	}
	if rt.Stats().Asserts.OwneesLive != 0 {
		t.Errorf("ownee table not purged: %d", rt.Stats().Asserts.OwneesLive)
	}
}

func TestAssertOwnedByOwnerDies(t *testing.T) {
	// When the owner is collected, its pairs are dropped; a surviving
	// ownee is not misreported on later cycles.
	w := newOwnershipWorld(t)
	rt, th := w.rt, w.th

	g := rt.AddGlobal("container")
	cont, arr := w.holder(g, w.container, w.contArr, 1)

	e := th.New(w.elem)
	rt.ArrSetRef(arr, 0, e)
	rt.AddGlobal("alias").Set(e) // ownee independently rooted
	rt.AssertOwnedBy(cont, e)

	g.Set(Nil) // drop the owner
	// First GC: owner unmarked, collected; per the paper the region
	// reachable only from it survives one extra cycle; the ownee here is
	// rooted anyway. The pair is dropped because the owner died.
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Asserts.OwneesLive != 0 {
		t.Errorf("pairs not dropped with dead owner: %d", rt.Stats().Asserts.OwneesLive)
	}
	rt.ResetViolations()
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Violations()); n != 0 {
		t.Errorf("stale ownee bit caused violations: %d", n)
	}
}

func TestAssertOwnedByStructuralErrors(t *testing.T) {
	w := newOwnershipWorld(t)
	rt, th := w.rt, w.th
	f := th.PushFrame(3)
	a := f.New(0, w.elem)
	b := f.New(1, w.elem)
	c := f.New(2, w.elem)

	if err := rt.AssertOwnedBy(a, a); err == nil {
		t.Error("self-ownership accepted")
	}
	if err := rt.AssertOwnedBy(a, b); err != nil {
		t.Fatal(err)
	}
	// Duplicate identical assertion: no-op.
	if err := rt.AssertOwnedBy(a, b); err != nil {
		t.Errorf("duplicate pair rejected: %v", err)
	}
	// Second owner for the same ownee: rejected.
	if err := rt.AssertOwnedBy(c, b); err == nil {
		t.Error("two owners for one ownee accepted")
	}
	// Owner as ownee and vice versa: rejected.
	if err := rt.AssertOwnedBy(b, c); err == nil {
		t.Error("ownee promoted to owner accepted")
	}
	if err := rt.AssertOwnedBy(c, a); err == nil {
		t.Error("owner demoted to ownee accepted")
	}
}

func TestAssertOwnedByManyOwners(t *testing.T) {
	// Several disjoint owner regions checked in one pass.
	w := newOwnershipWorld(t)
	rt, th := w.rt, w.th

	const owners = 5
	const perOwner = 10
	for i := 0; i < owners; i++ {
		cont, arr := w.holder(rt.AddGlobal(string(rune('a'+i))), w.container, w.contArr, perOwner)
		for j := 0; j < perOwner; j++ {
			e := th.New(w.elem)
			rt.ArrSetRef(arr, j, e)
			if err := rt.AssertOwnedBy(cont, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Violations()); n != 0 {
		t.Errorf("violations = %d, want 0", n)
	}
	st := rt.Stats()
	if st.Asserts.OwneesLive != owners*perOwner {
		t.Errorf("OwneesLive = %d, want %d", st.Asserts.OwneesLive, owners*perOwner)
	}
	if st.GC.Trace.OwneesChecked == 0 {
		t.Error("no ownee checks counted")
	}
}

func TestAssertOwnedByImproperOverlap(t *testing.T) {
	// Owner A's region reaches into owner B's region (B's ownee): the
	// paper's "improper use" warning.
	w := newOwnershipWorld(t)
	rt, th := w.rt, w.th

	_, aArr := w.holder(rt.AddGlobal("a"), w.container, w.contArr, 1)

	bCont, bArr := w.holder(rt.AddGlobal("b"), w.container, w.contArr, 1)

	e := th.New(w.elem)
	rt.ArrSetRef(bArr, 0, e)
	rt.AssertOwnedBy(bCont, e)
	rt.ArrSetRef(aArr, 0, e) // A's region now overlaps B's ownee

	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	vs := rt.Violations()
	improper := 0
	for _, v := range vs {
		if v.Kind == report.ImproperOwnership {
			improper++
		}
	}
	// Scan order determines whether A (improper) or B (tags it owned)
	// reaches e first; owners are scanned in registration order, and B
	// registered first, so B tags it owned and A's scan then skips the
	// marked object — no improper warning, no false violation. Rewire so
	// A is registered first to force the improper case.
	if improper != 0 {
		t.Logf("improper reported (scan-order dependent): ok")
	}
	// Either way there must be no false UnownedOwnee: e is genuinely
	// reachable through B.
	for _, v := range vs {
		if v.Kind == report.UnownedOwnee {
			t.Errorf("false unowned violation: %s", v.Format())
		}
	}
}

func TestAssertOwnedByImproperOverlapFirstScan(t *testing.T) {
	// Registration order forces the overlapping owner to scan first.
	w := newOwnershipWorld(t)
	rt, th := w.rt, w.th

	aCont, aArr := w.holder(rt.AddGlobal("a"), w.container, w.contArr, 2) // will overlap; registered first

	bCont, bArr := w.holder(rt.AddGlobal("b"), w.container, w.contArr, 2)

	// Register a pair for A first so A occupies owner slot 0.
	aElem := th.New(w.elem)
	rt.ArrSetRef(aArr, 0, aElem)
	rt.AssertOwnedBy(aCont, aElem)

	bElem := th.New(w.elem)
	rt.ArrSetRef(bArr, 0, bElem)
	rt.AssertOwnedBy(bCont, bElem)

	rt.ArrSetRef(aArr, 1, bElem) // A reaches B's ownee

	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	improper := 0
	for _, v := range rt.Violations() {
		if v.Kind == report.ImproperOwnership {
			improper++
			if v.Object != bElem {
				t.Errorf("improper object = %d, want %d", v.Object, bElem)
			}
		}
		if v.Kind == report.UnownedOwnee {
			t.Errorf("false unowned violation: %s", v.Format())
		}
	}
	if improper != 1 {
		t.Errorf("improper warnings = %d, want 1", improper)
	}
}
