package gc

import (
	"errors"
	"testing"

	"repro/internal/assertions"
	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// world is a collector test fixture at the gc-package level.
type world struct {
	h    *vmheap.Heap
	reg  *classes.Registry
	gl   []vmheap.Ref   // global root slots
	span [][]vmheap.Ref // roots' reused result
	rec  *report.Recorder
	eng  *assertions.Engine
	node *classes.Class
	next uint32
}

func newWorld(t testing.TB, mode Mode) *world {
	t.Helper()
	w := &world{
		h:   vmheap.New(1 << 13),
		reg: classes.NewRegistry(),
		rec: &report.Recorder{},
	}
	w.node = w.reg.MustDefine("Node", nil,
		classes.Field{Name: "next", Kind: classes.RefKind})
	w.next = uint32(w.node.MustFieldIndex("next"))
	if mode == Infrastructure {
		w.eng = assertions.New(w.h, w.reg, nil, w.rec)
	}
	return w
}

// root adds a global root slot holding r.
func (w *world) root(r vmheap.Ref) { w.gl = append(w.gl, r) }

// roots is the collector's root callback: the global slots as one span,
// without allocating once the span list exists.
func (w *world) roots() [][]vmheap.Ref {
	w.span = append(w.span[:0], w.gl)
	return w.span
}

func (w *world) alloc(t testing.TB) vmheap.Ref {
	t.Helper()
	r, err := w.h.Alloc(vmheap.KindScalar, w.node.ID, w.node.FieldWords)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMarkSweepBaseCollects(t *testing.T) {
	w := newWorld(t, Base)
	c := NewMarkSweep(w.h, w.reg, w.roots, Base, nil)

	live := w.alloc(t)
	w.alloc(t) // garbage
	w.root(live)

	if err := c.CollectFull(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Collections != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.FreedObjects != 1 {
		t.Errorf("FreedObjects = %d", st.FreedObjects)
	}
	if st.MarkedObjects != 1 {
		t.Errorf("MarkedObjects = %d", st.MarkedObjects)
	}
	if st.GCTime <= 0 {
		t.Error("no GC time recorded")
	}
}

func TestMarkSweepModeEngineMismatch(t *testing.T) {
	w := newWorld(t, Infrastructure)
	assertPanics(t, func() { NewMarkSweep(w.h, w.reg, w.roots, Base, w.eng) })
	assertPanics(t, func() { NewMarkSweep(w.h, w.reg, w.roots, Infrastructure, nil) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	fn()
}

func TestMarkSweepHaltPropagates(t *testing.T) {
	w := newWorld(t, Infrastructure)
	w.rec.Respond = func(*report.Violation) report.Action { return report.Halt }
	c := NewMarkSweep(w.h, w.reg, w.roots, Infrastructure, w.eng)

	obj := w.alloc(t)
	w.root(obj)
	if err := w.eng.AssertDead(obj); err != nil {
		t.Fatal(err)
	}
	err := c.CollectFull()
	var halt *report.HaltError
	if !errors.As(err, &halt) {
		t.Fatalf("err = %v", err)
	}
	// The cycle completed: heap consistent, stats recorded.
	if c.Stats().Collections != 1 {
		t.Error("halted collection not counted")
	}
}

func TestMarkSweepChecksAssertionsEachCycle(t *testing.T) {
	w := newWorld(t, Infrastructure)
	c := NewMarkSweep(w.h, w.reg, w.roots, Infrastructure, w.eng)
	obj := w.alloc(t)
	w.root(obj)
	w.eng.AssertDead(obj)
	for i := 0; i < 3; i++ {
		if err := c.CollectFull(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(w.rec.Violations); got != 3 {
		t.Errorf("violations = %d, want 3 (one per cycle)", got)
	}
	if c.Stats().Trace.DeadHits < 3 {
		t.Errorf("DeadHits = %d", c.Stats().Trace.DeadHits)
	}
}

func TestMarkSweepOwnershipPhase(t *testing.T) {
	w := newWorld(t, Infrastructure)
	c := NewMarkSweep(w.h, w.reg, w.roots, Infrastructure, w.eng)

	owner := w.alloc(t)
	ownee := w.alloc(t)
	w.h.SetRefAt(owner, w.next, ownee)
	w.root(owner)
	w.eng.AssertOwnedBy(owner, ownee)

	if err := c.CollectFull(); err != nil {
		t.Fatal(err)
	}
	if len(w.rec.Violations) != 0 {
		t.Errorf("clean ownership violated: %v", w.rec.Violations)
	}
	if c.Stats().Trace.OwneesChecked == 0 {
		t.Error("ownership phase did not run")
	}
	// The owned bit must be cleared between cycles (recomputed each GC).
	if w.h.Flags(ownee, vmheap.FlagOwned) != 0 {
		t.Error("owned bit survived the sweep")
	}
}

func TestModeString(t *testing.T) {
	if Base.String() != "Base" || Infrastructure.String() != "Infrastructure" {
		t.Error("mode strings wrong")
	}
}

func TestStatsAddTrace(t *testing.T) {
	var s Stats
	s.addTrace(traceStatsForTest(1, 2, 3, 4, 5, 6))
	s.addTrace(traceStatsForTest(1, 2, 3, 4, 5, 6))
	if s.Trace.Visited != 2 || s.Trace.RefsScanned != 4 || s.Trace.DeadHits != 6 ||
		s.Trace.SharedHits != 8 || s.Trace.OwneesChecked != 10 || s.Trace.ForcedRefs != 12 {
		t.Errorf("accumulated = %+v", s.Trace)
	}
}

// traceStatsForTest builds a trace.Stats literal without importing its
// field names at every call site.
func traceStatsForTest(v, r, d, s, o, f uint64) (ts trace.Stats) {
	ts.Visited, ts.RefsScanned, ts.DeadHits = v, r, d
	ts.SharedHits, ts.OwneesChecked, ts.ForcedRefs = s, o, f
	return
}

// An ownership-armed collection that finds nothing to report must not
// allocate: the phase descriptor, the check closures, the ownership queues
// and PreSweep's owner buffers all persist from the previous cycle.
func TestArmedCollectionAllocatesNothing(t *testing.T) {
	const ownees = 1000
	w := newWorld(t, Infrastructure)
	c := NewMarkSweep(w.h, w.reg, w.roots, Infrastructure, w.eng)
	owner, err := w.h.Alloc(vmheap.KindRefArray, classes.RefArrayClassID, ownees)
	if err != nil {
		t.Fatal(err)
	}
	w.root(owner)
	for i := uint32(0); i < ownees; i++ {
		e := w.alloc(t)
		w.h.SetArrayWord(owner, i, uint64(e))
		if err := w.eng.AssertOwnedBy(owner, e); err != nil {
			t.Fatal(err)
		}
	}
	collect := func() {
		if err := c.CollectFull(); err != nil {
			t.Fatal(err)
		}
	}
	collect() // first cycle sizes the reusable buffers
	if got := testing.AllocsPerRun(10, collect); got != 0 {
		t.Errorf("armed collection allocates %v times, want 0", got)
	}
	if len(w.rec.Violations) != 0 {
		t.Errorf("violations = %v, want none", w.rec.Violations)
	}
	if got := c.Stats().Trace.OwneesChecked; got != 12*ownees {
		t.Errorf("OwneesChecked = %d, want %d", got, 12*ownees)
	}
}

// A dead-asserted string held through two slots never enters the worklist,
// yet the engine still reports it once, with the first holder's path, and
// the trace still counts both encounters.
func TestDeadLeafReportedOnceWithPath(t *testing.T) {
	w := newWorld(t, Infrastructure)
	c := NewMarkSweep(w.h, w.reg, w.roots, Infrastructure, w.eng)
	a, b := w.alloc(t), w.alloc(t)
	s, err := w.h.Alloc(vmheap.KindDataArray, classes.DataArrayClassID, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.h.SetRefAt(a, w.next, s)
	w.h.SetRefAt(b, w.next, s)
	w.root(a)
	w.root(b)
	if err := w.eng.AssertDead(s); err != nil {
		t.Fatal(err)
	}
	if err := c.CollectFull(); err != nil {
		t.Fatal(err)
	}
	if len(w.rec.Violations) != 1 {
		t.Fatalf("violations = %d, want 1", len(w.rec.Violations))
	}
	v := w.rec.Violations[0]
	if v.Kind != report.DeadReachable || len(v.Path) != 2 ||
		v.Path[0].Class != "Node" || v.Path[1] != (report.PathElem{Class: "data[]", Ref: s}) {
		t.Errorf("violation = %v", v)
	}
	if got := c.Stats().Trace.DeadHits; got != 2 {
		t.Errorf("DeadHits = %d, want 2", got)
	}
}
