package staleness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

// worldConfigs are the runtimes every cacheWorld test runs over:
// stop-the-world, and the background pacer with allocation buffers. The
// world's heap never reaches the pacer's trigger, so the concurrent world
// opens a cycle by hand after each Advance; touches, drops and the next GC
// then run with a cycle open, which that GC completes before collecting.
var worldConfigs = []struct {
	name string
	cfg  core.Config
}{
	{"stw", core.Config{HeapWords: 1 << 14, Mode: core.Infrastructure}},
	{"concurrent", core.Config{
		HeapWords: 1 << 14, Mode: core.Infrastructure,
		ConcurrentGC: true, AllocBuffers: 128,
	}},
}

// forEachWorld runs fn as one subtest per worldConfigs entry, and closes
// the world's runtime after it.
func forEachWorld(t *testing.T, fn func(t *testing.T, w *cacheWorld)) {
	for _, wc := range worldConfigs {
		t.Run(wc.name, func(t *testing.T) {
			w := newCacheWorld(t, wc.cfg)
			fn(t, w)
			if w.concurrent && w.rt.Stats().Pacer.Cycles == 0 {
				t.Error("concurrent world completed no cycle")
			}
			if err := w.rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// cacheWorld models the access-pattern taxonomy the paper's comparison
// rests on: hot entries (touched every round), cold-but-needed entries
// (touched rarely but genuinely required), and leaked entries (removed
// from the working set but still pinned by a stray reference).
type cacheWorld struct {
	rt         *core.Runtime
	concurrent bool
	entry      *core.Class
	arr        core.Ref
	hot        []core.Ref
	cold       []core.Ref
	leak       []core.Ref
}

func newCacheWorld(t *testing.T, cfg core.Config) *cacheWorld {
	t.Helper()
	rt := core.New(cfg)
	w := &cacheWorld{rt: rt, concurrent: cfg.ConcurrentGC, entry: rt.DefineClass("Entry", core.DataField("v"))}
	// The pacer goroutine can collect between any two calls, so every
	// object is allocated straight into a frame slot.
	th := rt.MainThread()
	f := th.PushFrame(1)
	defer th.PopFrame()

	w.arr = f.NewRefArray(0, 30)
	rt.AddGlobal("world").Set(w.arr)
	slot := 0
	add := func(dst *[]core.Ref, n int) {
		for i := 0; i < n; i++ {
			e := f.New(0, w.entry)
			rt.ArrSetRef(w.arr, slot, e)
			slot++
			*dst = append(*dst, e)
		}
	}
	add(&w.hot, 10)
	add(&w.cold, 10)
	add(&w.leak, 10)
	return w
}

// collect runs a full collection and ages tr by it, then, on a concurrent
// world, opens the next cycle.
func (w *cacheWorld) collect(t *testing.T, tr *Tracker) {
	t.Helper()
	if err := w.rt.GC(); err != nil {
		t.Fatal(err)
	}
	tr.Advance(w.rt)
	if w.concurrent {
		if err := w.rt.StartGC(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStalenessFlagsLeaksAndColdData(t *testing.T) {
	forEachWorld(t, func(t *testing.T, w *cacheWorld) {
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
			w.collect(t, tr)
		}

		flagged := map[core.Ref]bool{}
		for _, s := range tr.Stale(w.rt) {
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
	})
}

func TestAdvanceDropsReclaimed(t *testing.T) {
	forEachWorld(t, func(t *testing.T, w *cacheWorld) {
		tr := New(1)
		tr.Touch(w.hot[0])
		w.collect(t, tr)
		// The array and its 30 entries.
		if got := tr.Tracked(); got != 31 {
			t.Fatalf("tracked %d live objects, want 31", got)
		}
		for i := range w.hot {
			w.rt.ArrSetRef(w.arr, i, core.Nil)
		}
		w.collect(t, tr)
		if got, want := tr.Tracked(), 31-len(w.hot); got != want {
			t.Errorf("tracked %d objects after dropping %d of 31, want %d", got, len(w.hot), want)
		}
	})
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
