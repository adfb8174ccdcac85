package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/vmheap"
)

// testEnv bundles a heap, registry, a Node class (two ref fields, one data
// field) and a root table for tracer tests.
type testEnv struct {
	h    *vmheap.Heap
	reg  *classes.Registry
	node *classes.Class
	gl   []vmheap.Ref // global root slots, in one span
	next uint32       // field offsets
	other,
	val uint32
}

func newEnv(t testing.TB, heapWords int) *testEnv {
	t.Helper()
	reg := classes.NewRegistry()
	node := reg.MustDefine("Node", nil,
		classes.Field{Name: "next", Kind: classes.RefKind},
		classes.Field{Name: "other", Kind: classes.RefKind},
		classes.Field{Name: "val", Kind: classes.DataKind},
	)
	e := &testEnv{
		h:    vmheap.New(heapWords),
		reg:  reg,
		node: node,
	}
	e.next = uint32(node.MustFieldIndex("next"))
	e.other = uint32(node.MustFieldIndex("other"))
	e.val = uint32(node.MustFieldIndex("val"))
	return e
}

// root adds a global root slot holding r.
func (e *testEnv) root(r vmheap.Ref) { e.gl = append(e.gl, r) }

// roots is the environment's root set: the global slots as one span.
func (e *testEnv) roots() [][]vmheap.Ref { return [][]vmheap.Ref{e.gl} }

func (e *testEnv) alloc(t testing.TB) vmheap.Ref {
	t.Helper()
	r, err := e.h.Alloc(vmheap.KindScalar, e.node.ID, e.node.FieldWords)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// chain builds root -> n0 -> n1 -> ... -> n(k-1) via next fields, roots the
// head in a fresh global, and returns the nodes.
func (e *testEnv) chain(t testing.TB, name string, k int) []vmheap.Ref {
	t.Helper()
	nodes := make([]vmheap.Ref, k)
	for i := range nodes {
		nodes[i] = e.alloc(t)
		if i > 0 {
			e.h.SetRefAt(nodes[i-1], e.next, nodes[i])
		}
	}
	e.root(nodes[0])
	return nodes
}

func (e *testEnv) tracer() *Tracer { return New(e.h, e.reg) }

func TestTraceBaseMarksReachableOnly(t *testing.T) {
	e := newEnv(t, 4096)
	live := e.chain(t, "root", 5)
	dead := e.alloc(t) // unrooted

	tr := e.tracer()
	tr.TraceBase(e.roots())
	for _, r := range live {
		if e.h.Flags(r, vmheap.FlagMark) == 0 {
			t.Errorf("live node %d not marked", r)
		}
	}
	if e.h.Flags(dead, vmheap.FlagMark) != 0 {
		t.Error("unrooted node marked")
	}
	if tr.Stats().Visited != 5 {
		t.Errorf("Visited = %d, want 5", tr.Stats().Visited)
	}
}

func TestTraceBaseHandlesCycles(t *testing.T) {
	e := newEnv(t, 4096)
	nodes := e.chain(t, "root", 3)
	// Close the cycle and add a cross edge.
	e.h.SetRefAt(nodes[2], e.next, nodes[0])
	e.h.SetRefAt(nodes[1], e.other, nodes[1]) // self loop

	tr := e.tracer()
	tr.TraceBase(e.roots())
	if tr.Stats().Visited != 3 {
		t.Errorf("Visited = %d, want 3", tr.Stats().Visited)
	}
}

func TestTraceBaseRefArrays(t *testing.T) {
	e := newEnv(t, 4096)
	arr, err := e.h.Alloc(vmheap.KindRefArray, classes.RefArrayClassID, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := e.alloc(t), e.alloc(t)
	e.h.SetArrayWord(arr, 0, uint64(a))
	e.h.SetArrayWord(arr, 3, uint64(b))
	e.root(arr)

	tr := e.tracer()
	tr.TraceBase(e.roots())
	if tr.Stats().Visited != 3 {
		t.Errorf("Visited = %d, want 3", tr.Stats().Visited)
	}
	if e.h.Flags(b, vmheap.FlagMark) == 0 {
		t.Error("array element not marked")
	}
}

func TestTraceInfraEquivalentMarking(t *testing.T) {
	// Property: Base and Infrastructure mark exactly the same objects on
	// randomly wired heaps.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func() (*testEnv, []vmheap.Ref) {
			e := newEnv(t, 1<<14)
			n := 50 + rng.Intn(100)
			nodes := make([]vmheap.Ref, n)
			for i := range nodes {
				nodes[i] = e.alloc(t)
			}
			for i := range nodes {
				if rng.Intn(3) > 0 {
					e.h.SetRefAt(nodes[i], e.next, nodes[rng.Intn(n)])
				}
				if rng.Intn(3) == 0 {
					e.h.SetRefAt(nodes[i], e.other, nodes[rng.Intn(n)])
				}
			}
			for i := 0; i < 5; i++ {
				e.root(nodes[rng.Intn(n)])
			}
			return e, nodes
		}
		// Both builds use the same seed-derived wiring because rng is
		// re-seeded.
		rng = rand.New(rand.NewSource(seed))
		e1, n1 := build()
		rng = rand.New(rand.NewSource(seed))
		e2, n2 := build()

		New(e1.h, e1.reg).TraceBase(e1.roots())
		New(e2.h, e2.reg).TraceInfra(e2.roots())
		for i := range n1 {
			m1 := e1.h.Flags(n1[i], vmheap.FlagMark) != 0
			m2 := e2.h.Flags(n2[i], vmheap.FlagMark) != 0
			if m1 != m2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestInfraDeadCheckPath(t *testing.T) {
	e := newEnv(t, 4096)
	nodes := e.chain(t, "root", 4)
	victim := nodes[3]
	e.h.SetFlags(victim, vmheap.FlagDead)

	var gotObj vmheap.Ref
	var gotPath []vmheap.Ref
	tr := e.tracer()
	tr.SetChecks(Checks{
		Dead: func(obj vmheap.Ref, path func() []vmheap.Ref) report.Action {
			gotObj = obj
			gotPath = path()
			return report.Continue
		},
	})
	tr.TraceInfra(e.roots())

	if gotObj != victim {
		t.Fatalf("dead check on %d, want %d", gotObj, victim)
	}
	want := nodes // full chain ending at victim
	if len(gotPath) != len(want) {
		t.Fatalf("path len = %d (%v), want %d", len(gotPath), gotPath, len(want))
	}
	for i := range want {
		if gotPath[i] != want[i] {
			t.Errorf("path[%d] = %d, want %d", i, gotPath[i], want[i])
		}
	}
	// Continue semantics: the dead object remains marked (still live).
	if e.h.Flags(victim, vmheap.FlagMark) == 0 {
		t.Error("dead-asserted object not marked under Continue")
	}
}

func TestInfraDeadCheckAtRoot(t *testing.T) {
	e := newEnv(t, 4096)
	obj := e.alloc(t)
	e.h.SetFlags(obj, vmheap.FlagDead)
	e.root(obj)

	var gotPath []vmheap.Ref
	tr := e.tracer()
	tr.SetChecks(Checks{
		Dead: func(_ vmheap.Ref, path func() []vmheap.Ref) report.Action {
			gotPath = path()
			return report.Continue
		},
	})
	tr.TraceInfra(e.roots())
	if len(gotPath) != 1 || gotPath[0] != obj {
		t.Errorf("root path = %v, want [%d]", gotPath, obj)
	}
}

func TestInfraForceNullsReference(t *testing.T) {
	e := newEnv(t, 4096)
	nodes := e.chain(t, "root", 3)
	victim := nodes[2]
	e.h.SetFlags(victim, vmheap.FlagDead)

	tr := e.tracer()
	tr.SetChecks(Checks{
		Dead: func(vmheap.Ref, func() []vmheap.Ref) report.Action { return report.Force },
	})
	tr.TraceInfra(e.roots())

	if e.h.RefAt(nodes[1], e.next) != vmheap.Nil {
		t.Error("incoming reference not nulled by Force")
	}
	if e.h.Flags(victim, vmheap.FlagMark) != 0 {
		t.Error("forced object still marked")
	}
	if tr.Stats().ForcedRefs != 1 {
		t.Errorf("ForcedRefs = %d, want 1", tr.Stats().ForcedRefs)
	}
	// Sweep must reclaim it.
	st := e.h.Sweep(vmheap.SweepOptions{})
	if st.FreedObjects != 1 {
		t.Errorf("FreedObjects = %d, want 1", st.FreedObjects)
	}
}

func TestInfraForceNullsAllIncomingRefs(t *testing.T) {
	e := newEnv(t, 4096)
	a, b, victim := e.alloc(t), e.alloc(t), e.alloc(t)
	e.h.SetRefAt(a, e.next, victim)
	e.h.SetRefAt(b, e.next, victim)
	e.h.SetFlags(victim, vmheap.FlagDead)
	e.root(a)
	e.root(b)

	tr := e.tracer()
	tr.SetChecks(Checks{
		Dead: func(vmheap.Ref, func() []vmheap.Ref) report.Action { return report.Force },
	})
	tr.TraceInfra(e.roots())
	if e.h.RefAt(a, e.next) != vmheap.Nil || e.h.RefAt(b, e.next) != vmheap.Nil {
		t.Error("not all incoming refs nulled")
	}
	if tr.Stats().ForcedRefs != 2 {
		t.Errorf("ForcedRefs = %d, want 2", tr.Stats().ForcedRefs)
	}
}

func TestInfraForceNullsRootSlot(t *testing.T) {
	e := newEnv(t, 4096)
	obj := e.alloc(t)
	e.h.SetFlags(obj, vmheap.FlagDead)
	e.root(obj)

	tr := e.tracer()
	tr.SetChecks(Checks{
		Dead: func(vmheap.Ref, func() []vmheap.Ref) report.Action { return report.Force },
	})
	tr.TraceInfra(e.roots())
	if e.gl[0] != vmheap.Nil {
		t.Error("root slot not nulled by Force")
	}
}

func TestInfraUnsharedSecondEncounter(t *testing.T) {
	e := newEnv(t, 4096)
	parent1, parent2, shared := e.alloc(t), e.alloc(t), e.alloc(t)
	e.h.SetRefAt(parent1, e.next, shared)
	e.h.SetRefAt(parent2, e.next, shared)
	e.h.SetFlags(shared, vmheap.FlagUnshared)
	e.root(parent1)
	e.root(parent2)

	var hits int
	tr := e.tracer()
	tr.SetChecks(Checks{
		Shared: func(obj vmheap.Ref, path func() []vmheap.Ref) {
			hits++
			if obj != shared {
				t.Errorf("shared check on %d, want %d", obj, shared)
			}
			p := path()
			if p[len(p)-1] != shared {
				t.Errorf("path does not end at object: %v", p)
			}
		},
	})
	tr.TraceInfra(e.roots())
	if hits != 1 {
		t.Errorf("shared hits = %d, want 1", hits)
	}
}

func TestInfraUnsharedSingleParentNoViolation(t *testing.T) {
	e := newEnv(t, 4096)
	nodes := e.chain(t, "root", 2)
	e.h.SetFlags(nodes[1], vmheap.FlagUnshared)
	var hits int
	tr := e.tracer()
	tr.SetChecks(Checks{Shared: func(vmheap.Ref, func() []vmheap.Ref) { hits++ }})
	tr.TraceInfra(e.roots())
	if hits != 0 {
		t.Errorf("unshared object with one parent reported (%d hits)", hits)
	}
}

func TestInfraInstanceCounting(t *testing.T) {
	e := newEnv(t, 4096)
	e.reg.SetInstanceLimit(e.node, 2, false)
	e.chain(t, "root", 5)
	e.alloc(t) // unreachable: must not count

	tr := e.tracer()
	tr.TraceInfra(e.roots())
	over := e.reg.CheckLimits()
	if len(over) != 1 {
		t.Fatalf("violations = %d, want 1", len(over))
	}
	if over[0].Count != 5 {
		t.Errorf("count = %d, want 5 (reachable only)", over[0].Count)
	}
}

func TestInfraHaltRequest(t *testing.T) {
	e := newEnv(t, 4096)
	obj := e.alloc(t)
	e.h.SetFlags(obj, vmheap.FlagDead)
	e.root(obj)

	tr := e.tracer()
	v := &report.Violation{Kind: report.DeadReachable}
	tr.SetChecks(Checks{
		Dead: func(vmheap.Ref, func() []vmheap.Ref) report.Action {
			tr.RequestHalt(v)
			return report.Continue
		},
	})
	tr.TraceInfra(e.roots())
	if tr.Halted() != v {
		t.Error("halt request not recorded")
	}
	tr.Reset()
	if tr.Halted() != nil {
		t.Error("Reset did not clear halt")
	}
}

// validatePath checks that each consecutive pair in a path is connected by
// an actual heap reference.
func validatePath(t *testing.T, e *testEnv, path []vmheap.Ref) {
	t.Helper()
	for i := 0; i+1 < len(path); i++ {
		parent, child := path[i], path[i+1]
		found := false
		switch e.h.KindOf(parent) {
		case vmheap.KindScalar:
			for _, off := range e.reg.RefOffsets(e.h.ClassID(parent)) {
				if e.h.RefAt(parent, uint32(off)) == child {
					found = true
				}
			}
		case vmheap.KindRefArray:
			for j := uint32(0); j < e.h.ArrayLen(parent); j++ {
				if vmheap.Ref(e.h.ArrayWord(parent, j)) == child {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("path step %d -> %d has no heap edge", parent, child)
		}
	}
}

// Property: reported dead paths are always valid heap paths, on randomly
// wired heaps with a randomly chosen dead-asserted victim.
func TestPropertyPathsAreValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, 1<<14)
		n := 30 + rng.Intn(50)
		nodes := make([]vmheap.Ref, n)
		for i := range nodes {
			nodes[i] = e.alloc(t)
		}
		for i := range nodes {
			if rng.Intn(4) > 0 {
				e.h.SetRefAt(nodes[i], e.next, nodes[rng.Intn(n)])
			}
			if rng.Intn(4) == 0 {
				e.h.SetRefAt(nodes[i], e.other, nodes[rng.Intn(n)])
			}
		}
		e.root(nodes[0])
		victim := nodes[rng.Intn(n)]
		e.h.SetFlags(victim, vmheap.FlagDead)

		ok := true
		tr := e.tracer()
		tr.SetChecks(Checks{
			Dead: func(obj vmheap.Ref, path func() []vmheap.Ref) report.Action {
				p := path()
				if len(p) == 0 || p[len(p)-1] != obj {
					ok = false
				}
				validatePath(t, e, p)
				return report.Continue
			},
		})
		tr.TraceInfra(e.roots())
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatsRefsScanned(t *testing.T) {
	e := newEnv(t, 4096)
	e.chain(t, "root", 3)
	tr := e.tracer()
	tr.TraceInfra(e.roots())
	// 1 root encounter + 3 nodes x 2 ref fields = 7.
	if got := tr.Stats().RefsScanned; got != 7 {
		t.Errorf("RefsScanned = %d, want 7", got)
	}
}

func TestInfraArrayEncounters(t *testing.T) {
	e := newEnv(t, 4096)
	arr, err := e.h.Alloc(vmheap.KindRefArray, classes.RefArrayClassID, 3)
	if err != nil {
		t.Fatal(err)
	}
	victim := e.alloc(t)
	other := e.alloc(t)
	e.h.SetArrayWord(arr, 0, uint64(victim))
	e.h.SetArrayWord(arr, 2, uint64(other))
	e.h.SetFlags(victim, vmheap.FlagDead)
	e.root(arr)

	var gotPath []vmheap.Ref
	tr := e.tracer()
	tr.SetChecks(Checks{
		Dead: func(obj vmheap.Ref, path func() []vmheap.Ref) report.Action {
			gotPath = path()
			return report.Continue
		},
	})
	tr.TraceInfra(e.roots())
	if len(gotPath) != 2 || gotPath[0] != arr || gotPath[1] != victim {
		t.Errorf("array path = %v, want [%d %d]", gotPath, arr, victim)
	}
	if e.h.Flags(other, vmheap.FlagMark) == 0 {
		t.Error("sibling element not marked")
	}
}

func TestInfraForceNullsArraySlot(t *testing.T) {
	e := newEnv(t, 4096)
	arr, err := e.h.Alloc(vmheap.KindRefArray, classes.RefArrayClassID, 2)
	if err != nil {
		t.Fatal(err)
	}
	victim := e.alloc(t)
	e.h.SetArrayWord(arr, 1, uint64(victim))
	e.h.SetFlags(victim, vmheap.FlagDead)
	e.root(arr)

	tr := e.tracer()
	tr.SetChecks(Checks{
		Dead: func(vmheap.Ref, func() []vmheap.Ref) report.Action { return report.Force },
	})
	tr.TraceInfra(e.roots())
	if e.h.ArrayWord(arr, 1) != 0 {
		t.Error("array slot not nulled by Force")
	}
	if e.h.Flags(victim, vmheap.FlagMark) != 0 {
		t.Error("forced object marked")
	}
}
