package staleness

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

// cacheWorld models the access-pattern taxonomy the paper's comparison
// rests on: hot entries (touched every round), cold-but-needed entries
// (touched rarely but genuinely required), and leaked entries (removed
// from the working set but still pinned by a stray reference).
type cacheWorld struct {
	rt    *core.Runtime
	entry *core.Class
	hot   []core.Ref
	cold  []core.Ref
	leak  []core.Ref
}

func newCacheWorld(t *testing.T) *cacheWorld {
	t.Helper()
	rt := core.New(core.Config{HeapWords: 1 << 14, Mode: core.Infrastructure})
	w := &cacheWorld{rt: rt, entry: rt.DefineClass("Entry", core.DataField("v"))}
	th := rt.MainThread()

	arr := th.NewRefArray(30)
	rt.AddGlobal("world").Set(arr)
	slot := 0
	add := func(dst *[]core.Ref, n int) {
		for i := 0; i < n; i++ {
			e := th.New(w.entry)
			rt.ArrSetRef(arr, slot, e)
			slot++
			*dst = append(*dst, e)
		}
	}
	add(&w.hot, 10)
	add(&w.cold, 10)
	add(&w.leak, 10)
	return w
}

func TestStalenessFlagsLeaksAndColdData(t *testing.T) {
	w := newCacheWorld(t)
	tr := New(3)

	for round := 0; round < 5; round++ {
		for _, e := range w.hot {
			tr.Touch(e)
		}
		// cold entries are touched once, early.
		if round == 0 {
			for _, e := range w.cold {
				tr.Touch(e)
			}
		}
		// leaked entries: never touched after creation.
		if err := w.rt.GC(); err != nil {
			t.Fatal(err)
		}
		tr.Advance(w.rt)
	}

	stale := tr.Stale(w.rt)
	flagged := map[core.Ref]bool{}
	for _, s := range stale {
		flagged[s.Ref] = true
		if s.Class != "Entry" && s.Class != "Object[]" {
			t.Errorf("unexpected class %q", s.Class)
		}
	}
	for _, e := range w.leak {
		if !flagged[e] {
			t.Errorf("leaked entry %d not flagged", e)
		}
	}
	for _, e := range w.hot {
		if flagged[e] {
			t.Errorf("hot entry %d flagged", e)
		}
	}
	// The heuristic's signature weakness: cold-but-needed data is
	// indistinguishable from a leak.
	coldFlagged := 0
	for _, e := range w.cold {
		if flagged[e] {
			coldFlagged++
		}
	}
	if coldFlagged == 0 {
		t.Error("expected false positives on cold data — the heuristic's documented behavior")
	}
}

func TestAdvanceDropsReclaimed(t *testing.T) {
	rt := core.New(core.Config{HeapWords: 1 << 12, Mode: core.Infrastructure})
	entry := rt.DefineClass("Entry")
	th := rt.MainThread()
	g := rt.AddGlobal("g")
	e := th.New(entry)
	g.Set(e)
	tr := New(1)
	tr.Touch(e)
	tr.Advance(rt)
	if tr.Tracked() == 0 {
		t.Fatal("live object not tracked")
	}
	g.Set(core.Nil)
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	tr.Advance(rt)
	if tr.Tracked() != 0 {
		t.Errorf("reclaimed object still tracked: %d", tr.Tracked())
	}
}

func TestTouchNilIsNoop(t *testing.T) {
	tr := New(1)
	tr.Touch(core.Nil)
	if tr.Tracked() != 0 {
		t.Error("Nil tracked")
	}
}

// The paper's accuracy claim as an executable contrast: on the same heap,
// the staleness heuristic flags leaked AND cold objects, while
// assert-ownedby flags exactly the leaked ones ("the system generates no
// false positives").
func TestContrastWithOwnershipAssertions(t *testing.T) {
	rt := core.New(core.Config{HeapWords: 1 << 14, Mode: core.Infrastructure})
	container := rt.DefineClass("Container", core.RefField("elems"))
	side := rt.DefineClass("SideTable", core.RefField("elems"))
	entry := rt.DefineClass("Entry", core.DataField("v"))
	th := rt.MainThread()

	cont := th.New(container)
	rt.AddGlobal("container").Set(cont)
	celems := th.NewRefArray(20)
	rt.SetRef(cont, container.MustFieldIndex("elems"), celems)

	cache := th.New(side)
	rt.AddGlobal("cache").Set(cache)
	selems := th.NewRefArray(20)
	rt.SetRef(cache, side.MustFieldIndex("elems"), selems)

	tr := New(2)
	var entries []core.Ref
	for i := 0; i < 20; i++ {
		e := th.New(entry)
		rt.ArrSetRef(celems, i, e)
		rt.ArrSetRef(selems, i, e) // also cached
		rt.AssertOwnedBy(cont, e)
		entries = append(entries, e)
	}

	// Entries 0-4 leak: removed from the container, still cached.
	for i := 0; i < 5; i++ {
		rt.ArrSetRef(celems, i, core.Nil)
	}
	// Entries 5-9 are cold: live in the container, never accessed again.
	// Entries 10-19 are hot.
	for round := 0; round < 4; round++ {
		for i := 10; i < 20; i++ {
			tr.Touch(entries[i])
		}
		if err := rt.GC(); err != nil {
			t.Fatal(err)
		}
		tr.Advance(rt)
	}

	// Heuristic: flags leaked + cold (10+ suspects among entries).
	staleEntries := 0
	for _, s := range tr.Stale(rt) {
		if s.Class == "Entry" {
			staleEntries++
		}
	}
	if staleEntries < 10 {
		t.Errorf("heuristic flagged %d entries, expected >= 10 (leaks + cold)", staleEntries)
	}

	// Assertions: exactly the five leaked entries, every GC.
	unowned := map[core.Ref]bool{}
	for _, v := range rt.Violations() {
		if v.Kind == report.UnownedOwnee {
			unowned[v.Object] = true
		}
	}
	if len(unowned) != 5 {
		t.Fatalf("assertions flagged %d entries, want exactly 5", len(unowned))
	}
	for i := 0; i < 5; i++ {
		if !unowned[entries[i]] {
			t.Errorf("leaked entry %d not flagged by ownership", i)
		}
	}
}

// TestAdvanceSteadyStateAllocs pins the side-table conversion's allocation
// contract: after the first Advance binds the tracker's closures to a
// runtime and materializes its scratch chunks, further Advances allocate
// nothing — the old implementation rebuilt a map[Ref]bool of every live
// object per collection.
func TestAdvanceSteadyStateAllocs(t *testing.T) {
	w := newCacheWorld(t)
	tr := New(3)
	for _, e := range w.hot {
		tr.Touch(e)
	}
	// Warm up: bind closures, materialize chunks, settle the heap.
	for i := 0; i < 3; i++ {
		if err := w.rt.GC(); err != nil {
			t.Fatal(err)
		}
		tr.Advance(w.rt)
	}
	allocs := testing.AllocsPerRun(20, func() { tr.Advance(w.rt) })
	if allocs != 0 {
		t.Fatalf("steady-state Advance allocates %.1f objects per run, want 0", allocs)
	}
}

// tracker is what the differential drives: the Tracker, and the map model
// it is checked against.
type tracker interface {
	Touch(core.Ref)
	Advance(*core.Runtime)
	Stale(*core.Runtime) []StaleObject
	Tracked() int
}

// mapTracker is the reference model of the Tracker: last[r] is the epoch of
// r's most recent access, or of its first sighting by Advance for an object
// never touched.
type mapTracker struct {
	threshold, epoch uint64
	last             map[core.Ref]uint64
}

func (m *mapTracker) Touch(r core.Ref) {
	if r != core.Nil {
		m.last[r] = m.epoch
	}
}

func (m *mapTracker) Advance(rt *core.Runtime) {
	m.epoch++
	live := map[core.Ref]bool{}
	rt.Objects(func(r core.Ref) { live[r] = true })
	for r := range m.last {
		if !live[r] {
			delete(m.last, r)
		}
	}
	for r := range live {
		if _, ok := m.last[r]; !ok {
			m.last[r] = m.epoch
		}
	}
}

func (m *mapTracker) Stale(rt *core.Runtime) []StaleObject {
	var out []StaleObject
	for r, last := range m.last {
		if idle := m.epoch - last; idle >= m.threshold {
			out = append(out, StaleObject{Ref: r, Class: rt.ClassOf(r).Name, IdleEpochs: idle})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IdleEpochs != out[j].IdleEpochs {
			return out[i].IdleEpochs > out[j].IdleEpochs
		}
		return out[i].Ref < out[j].Ref
	})
	return out
}

func (m *mapTracker) Tracked() int { return len(m.last) }

// TestStalenessSideTabDifferential runs one deterministic access script
// against two trackers — dense side tables and the map model above —
// over identically-driven runtimes across two collector modes and three
// seeds, and requires identical suspect lists (refs, classes, idle epochs,
// order) and table sizes after every Advance. The script's heap never
// reaches the scheduler's trigger, so the concurrent arm opens a cycle by
// hand after every comparison: the script then runs with a cycle open that
// the pacer goroutine and assists advance and the next GC completes.
func TestStalenessSideTabDifferential(t *testing.T) {
	modes := []struct {
		name string
		cfg  func() core.Config
	}{
		{"serial", func() core.Config {
			return core.Config{HeapWords: 1 << 14, Mode: core.Infrastructure}
		}},
		{"concurrent", func() core.Config {
			return core.Config{
				HeapWords: 1 << 14, Mode: core.Infrastructure,
				ConcurrentGC: true, AllocBuffers: 128,
			}
		}},
	}
	for _, mode := range modes {
		for seed := int64(1); seed <= 3; seed++ {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s_seed%d", mode.name, seed), func(t *testing.T) {
				runStalenessDifferential(t, mode.cfg, seed)
			})
		}
	}
}

// stalenessWorld is one runtime plus a tracker, driven by the script in
// runStalenessDifferential. Both worlds make identical allocation and
// mutation sequences, so refs correspond one to one.
type stalenessWorld struct {
	rt    *core.Runtime
	th    *core.Thread
	entry *core.Class
	arr   core.Ref
	objs  []core.Ref
	tr    tracker
}

func newStalenessWorld(t *testing.T, cfg core.Config, tr tracker) *stalenessWorld {
	t.Helper()
	rt := core.New(cfg)
	w := &stalenessWorld{rt: rt, th: rt.MainThread(), tr: tr}
	w.entry = rt.DefineClass("Entry", core.DataField("v"))
	w.arr = w.th.NewRefArray(64)
	rt.AddGlobal("world").Set(w.arr)
	return w
}

func runStalenessDifferential(t *testing.T, cfg func() core.Config, seed int64) {
	dense := newStalenessWorld(t, cfg(), New(2))
	ref := newStalenessWorld(t, cfg(), &mapTracker{threshold: 2, last: map[core.Ref]uint64{}})
	worlds := []*stalenessWorld{dense, ref}
	concurrent := cfg().ConcurrentGC

	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 400; step++ {
		op, slot := rng.Intn(100), rng.Intn(64)
		for _, w := range worlds {
			switch {
			case op < 35: // allocate into a slot
				e := w.th.New(w.entry)
				w.rt.ArrSetRef(w.arr, slot, e)
				w.objs = append(w.objs, e)
			case op < 55: // touch a slot's object
				if r := w.rt.ArrGetRef(w.arr, slot); r != core.Nil {
					w.tr.Touch(r)
				}
			case op < 70: // drop a slot
				w.rt.ArrSetRef(w.arr, slot, core.Nil)
			case op < 90: // no-op mutator churn
				w.th.NewDataArray(1 + op%8)
			default: // collect + advance
				if err := w.rt.GC(); err != nil {
					t.Fatalf("GC: %v", err)
				}
				w.tr.Advance(w.rt)
			}
		}
		if op >= 90 {
			compareStaleness(t, step, dense, ref)
			if concurrent {
				for _, w := range worlds {
					if err := w.rt.StartGC(); err != nil {
						t.Fatalf("StartGC: %v", err)
					}
				}
			}
		}
	}
	if concurrent {
		for _, w := range worlds {
			if p := w.rt.Stats().Pacer; p.Cycles == 0 {
				t.Fatalf("concurrent world completed no pacer cycle: %+v", p)
			}
		}
	}
	// Final settle: both worlds quiesce, advance past threshold, compare.
	for _, w := range worlds {
		if err := w.rt.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for i := 0; i < 3; i++ {
			if err := w.rt.GC(); err != nil {
				t.Fatalf("GC: %v", err)
			}
			w.tr.Advance(w.rt)
		}
	}
	compareStaleness(t, -1, dense, ref)
}

// compareStaleness requires the two worlds' suspect lists to agree by
// script identity (slice index of the allocation), class, and idle count —
// refs differ between runtimes only if allocation order diverged, which is
// itself a failure.
func compareStaleness(t *testing.T, step int, dense, ref *stalenessWorld) {
	t.Helper()
	if got, want := dense.tr.Tracked(), ref.tr.Tracked(); got != want {
		t.Fatalf("step %d: Tracked: dense %d, map %d", step, got, want)
	}
	render := func(w *stalenessWorld) []string {
		id := make(map[core.Ref]int, len(w.objs))
		for i, r := range w.objs {
			id[r] = i
		}
		var out []string
		for _, s := range w.tr.Stale(w.rt) {
			n, ok := id[s.Ref]
			if !ok {
				n = -1
			}
			out = append(out, fmt.Sprintf("%d:%s:%d", n, s.Class, s.IdleEpochs))
		}
		return out
	}
	if got, want := render(dense), render(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: suspect lists differ\ndense: %v\nmap:   %v", step, got, want)
	}
}
