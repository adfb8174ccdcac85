package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/gc"
)

// Tests for incremental collection cycles (Config.IncrementalBudget > 0):
// the assertion matrix (every assertion kind under every cycle schedule,
// including mutations racing the mark slices), the pause-accounting
// invariants across serial/incremental configurations, the config
// validation, registration as a forced completion, and the
// allocation-triggered cycle path.

// incFix is one runtime under a chosen schedule, with a small class and a
// few global roots to build scenarios in. Nodes are allocated into the
// scratch frame fr (newNode) and stored where the scenario keeps them before
// drop clears it.
type incFix struct {
	rt         *Runtime
	th         *Thread
	fr         *Frame
	node       *Class
	aOff, bOff uint16
	g          []*Global
}

func newIncFix(budget int) *incFix {
	return newIncFixOn(Config{HeapWords: 1 << 12, IncrementalBudget: budget})
}

func newIncFixOn(cfg Config) *incFix {
	cfg.Mode = Infrastructure
	rt := New(cfg)
	f := &incFix{rt: rt, th: rt.MainThread()}
	f.node = rt.DefineClass("Node", RefField("a"), RefField("b"))
	f.aOff = f.node.MustFieldIndex("a")
	f.bOff = f.node.MustFieldIndex("b")
	for i := 0; i < 4; i++ {
		f.g = append(f.g, rt.AddGlobal(fmt.Sprintf("g%d", i)))
	}
	f.fr = f.th.PushFrame(4)
	return f
}

// newNode allocates a node into scratch slot i.
func (f *incFix) newNode(i int) Ref { return f.fr.New(i, f.node) }

// drop clears the scratch frame.
func (f *incFix) drop() {
	for i := range 4 {
		f.fr.SetLocal(i, Nil)
	}
}

// renderKinds reduces the recorded violations to sorted "kind count/limit"
// strings — the schedule-independent part of each violation (object refs
// diverge across schedules because sweep timing moves the free lists, and
// paths are snapshot-relative under incremental marking).
func renderKinds(rt *Runtime) []string {
	var out []string
	for _, v := range rt.Violations() {
		out = append(out, fmt.Sprintf("%v %d/%d", v.Kind, v.Count, v.Limit))
	}
	sort.Strings(out)
	return out
}

// TestIncrementalAssertionMatrix drives every assertion kind through every
// cycle schedule. Each case's setup registers the assertion and returns a
// mutation that — after the snapshot is taken — destroys the very evidence
// the assertion check needs (unroots the dead object, severs the sharing
// edge, hides the ownee). Snapshot-at-beginning semantics require the
// violations to be reported anyway, identically on every schedule.
func TestIncrementalAssertionMatrix(t *testing.T) {
	type caseT struct {
		name string
		// setup builds the scenario on f and returns the racing mutation.
		setup func(f *incFix) (mutate func())
		want  []string
	}
	cases := []caseT{
		{
			name: "assert-dead",
			setup: func(f *incFix) func() {
				o := f.newNode(0)
				f.g[0].Set(o)
				f.drop()
				if err := f.rt.AssertDead(o); err != nil {
					t.Fatal(err)
				}
				return func() { f.g[0].Set(Nil) }
			},
			want: []string{"assert-dead 0/0"},
		},
		{
			name: "assert-alldead",
			setup: func(f *incFix) func() {
				if err := f.th.StartRegion(); err != nil {
					t.Fatal(err)
				}
				f.g[0].Set(f.newNode(0))
				f.drop()
				if err := f.th.AssertAllDead(); err != nil {
					t.Fatal(err)
				}
				return func() { f.g[0].Set(Nil) }
			},
			want: []string{"assert-alldead 0/0"},
		},
		{
			name: "assert-instances",
			setup: func(f *incFix) func() {
				if err := f.rt.AssertInstances(f.node, 1); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					f.g[i].Set(f.newNode(0))
				}
				f.drop()
				return func() { f.g[2].Set(Nil) }
			},
			want: []string{"assert-instances 3/1"},
		},
		{
			name: "assert-unshared",
			setup: func(f *incFix) func() {
				child, p1, p2 := f.newNode(0), f.newNode(1), f.newNode(2)
				f.g[0].Set(p1)
				f.g[1].Set(p2)
				f.rt.SetRef(p1, f.aOff, child)
				f.rt.SetRef(p2, f.aOff, child)
				f.drop()
				if err := f.rt.AssertUnshared(child); err != nil {
					t.Fatal(err)
				}
				// Severing the second edge mid-cycle fires the write
				// barrier on p2, which is precisely where the snapshot's
				// second encounter of child must come from.
				return func() { f.rt.SetRef(p2, f.aOff, Nil) }
			},
			want: []string{"assert-unshared 0/0"},
		},
		{
			name: "assert-ownedby-unowned",
			setup: func(f *incFix) func() {
				owner, ownee := f.newNode(0), f.newNode(1)
				f.g[0].Set(owner)
				f.g[1].Set(ownee) // reachable, but not through owner
				f.drop()
				if err := f.rt.AssertOwnedBy(owner, ownee); err != nil {
					t.Fatal(err)
				}
				return func() { f.g[1].Set(Nil) }
			},
			want: []string{"assert-ownedby 0/0"},
		},
		{
			name: "assert-ownedby-improper",
			setup: func(f *incFix) func() {
				ownerA, ownerB := f.newNode(0), f.newNode(1)
				e, e2 := f.newNode(2), f.newNode(3)
				f.g[0].Set(ownerA)
				f.g[1].Set(ownerB)
				f.rt.SetRef(ownerB, f.aOff, e2)
				f.rt.SetRef(ownerB, f.bOff, e) // B's subtree reaches A's ownee
				f.drop()
				if err := f.rt.AssertOwnedBy(ownerA, e); err != nil {
					t.Fatal(err)
				}
				if err := f.rt.AssertOwnedBy(ownerB, e2); err != nil {
					t.Fatal(err)
				}
				return func() { f.rt.SetRef(ownerB, f.bOff, Nil) }
			},
			want: []string{"assert-ownedby (improper use) 0/0"},
		},
	}

	type schedT struct {
		name   string
		budget int
		drive  func(t *testing.T, f *incFix, mutate func())
	}
	finishSteps := func(t *testing.T, f *incFix) {
		for i := 0; ; i++ {
			done, err := f.rt.GCStep()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				return
			}
			if i > 10000 {
				t.Fatal("cycle did not terminate")
			}
		}
	}
	scheds := []schedT{
		{"stop-the-world", 0, func(t *testing.T, f *incFix, _ func()) {
			// Baseline: the mutation never runs; a plain collection of the
			// snapshot state defines the expected violations.
			if err := f.rt.GC(); err != nil {
				t.Fatal(err)
			}
		}},
		{"finish", 1, func(t *testing.T, f *incFix, _ func()) {
			if err := f.rt.StartGC(); err != nil {
				t.Fatal(err)
			}
			if err := f.rt.FinishGC(); err != nil {
				t.Fatal(err)
			}
		}},
		{"steps", 1, func(t *testing.T, f *incFix, _ func()) {
			if err := f.rt.StartGC(); err != nil {
				t.Fatal(err)
			}
			finishSteps(t, f)
		}},
		{"race-steps", 1, func(t *testing.T, f *incFix, mutate func()) {
			if err := f.rt.StartGC(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.rt.GCStep(); err != nil {
				t.Fatal(err)
			}
			mutate()
			finishSteps(t, f)
		}},
		{"race-finish", 1, func(t *testing.T, f *incFix, mutate func()) {
			if err := f.rt.StartGC(); err != nil {
				t.Fatal(err)
			}
			mutate()
			if err := f.rt.FinishGC(); err != nil {
				t.Fatal(err)
			}
		}},
		{"race-tax", 1, func(t *testing.T, f *incFix, mutate func()) {
			if err := f.rt.StartGC(); err != nil {
				t.Fatal(err)
			}
			mutate()
			// Unrooted allocations pay the tax slice until it completes
			// the cycle; allocate-black keeps them out of every check.
			for i := 0; f.rt.GCActive(); i++ {
				f.th.New(f.node)
				if i > 10000 {
					t.Fatal("assists never completed the cycle")
				}
			}
			if err := f.rt.FinishGC(); err != nil { // surfaces a stashed halt, if any
				t.Fatal(err)
			}
		}},
	}

	for _, c := range cases {
		for _, s := range scheds {
			t.Run(c.name+"/"+s.name, func(t *testing.T) {
				f := newIncFix(s.budget)
				mutate := c.setup(f)
				f.rt.ResetViolations()
				s.drive(t, f, mutate)
				if f.rt.GCActive() {
					t.Fatal("cycle still active after schedule")
				}
				got := renderKinds(f.rt)
				if strings.Join(got, ",") != strings.Join(c.want, ",") {
					t.Fatalf("violations = %v, want %v", got, c.want)
				}
				if errs := f.rt.VerifyHeap(); len(errs) > 0 {
					t.Fatalf("heap corrupt: %v", errs)
				}
			})
		}
	}
}

// TestIncrementalStatsInvariants is the pause-accounting regression across
// stop-the-world and incremental collections: all collector work happens inside
// stop-the-world pauses, so MaxPause must be positive and never exceed
// GCTime, and the incremental counters must be zero exactly when
// incremental mode is off.
func TestIncrementalStatsInvariants(t *testing.T) {
	run := func(t *testing.T, budget int) gc.Stats {
		rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure, IncrementalBudget: budget})
		node := rt.DefineClass("Node", RefField("a"), RefField("b"))
		aOff := node.MustFieldIndex("a")
		th := rt.MainThread()
		g := rt.AddGlobal("g")

		for round := 0; round < 4; round++ {
			head := th.New(node)
			g.Set(head)
			for i := 0; i < 40; i++ {
				n := th.New(node)
				rt.SetRef(n, aOff, g.Get())
				g.Set(n)
			}
			if budget > 0 {
				if err := rt.StartGC(); err != nil {
					t.Fatal(err)
				}
				// Run a bounded slice, mutate so barrier scans happen, then
				// complete. (The completion drain is part of the completion
				// pause, not a bounded slice, so MarkSlices counts only the
				// explicit step.) The mutation targets the chain's tail —
				// the object the mark slices reach last — so it is still
				// unscanned and the write triggers a snapshot scan.
				if _, err := rt.GCStep(); err != nil {
					t.Fatal(err)
				}
				rt.SetRef(head, aOff, Nil)
				if err := rt.FinishGC(); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := rt.GC(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return rt.Stats().GC
	}

	configs := []struct {
		name   string
		budget int
	}{
		{"serial", 0},
		{"incremental", 2},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			s := run(t, cfg.budget)
			if s.MaxPause > s.GCTime || s.MaxPause <= 0 {
				t.Errorf("MaxPause %v out of range (GCTime %v)", s.MaxPause, s.GCTime)
			}
			if s.Collections != 4 {
				t.Errorf("Collections = %d, want 4", s.Collections)
			}
			if cfg.budget > 0 {
				if s.IncrementalCycles != s.Collections {
					t.Errorf("IncrementalCycles = %d, want %d (every collection ran incrementally)",
						s.IncrementalCycles, s.Collections)
				}
				if s.MarkSlices < s.IncrementalCycles {
					t.Errorf("MarkSlices = %d < cycles %d", s.MarkSlices, s.IncrementalCycles)
				}
				if s.BarrierScans == 0 || s.BarrierRefs == 0 {
					t.Errorf("no barrier activity (scans=%d refs=%d) despite racing mutations",
						s.BarrierScans, s.BarrierRefs)
				}
			} else if s.IncrementalCycles != 0 || s.MarkSlices != 0 || s.BarrierScans != 0 {
				t.Errorf("incremental counters nonzero in non-incremental config: %+v", s)
			}
		})
	}
}

// TestIncrementalConfigValidation: nonsensical configurations must be
// rejected at construction.
func TestIncrementalConfigValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		})
	}
	mustPanic("negative-budget", Config{HeapWords: 1 << 10, Mode: Infrastructure, IncrementalBudget: -1})
	mustPanic("base-mode", Config{HeapWords: 1 << 10, Mode: Base, IncrementalBudget: 4})
}

// TestIncrementalAPIOnStopTheWorld: with budget 0 the incremental driving
// API degrades to plain stop-the-world collections, so code written against
// StartGC/GCStep/FinishGC runs unchanged under the paper's configuration.
func TestIncrementalAPIOnStopTheWorld(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 10, Mode: Infrastructure})
	th := rt.MainThread()
	node := rt.DefineClass("Node", RefField("a"), RefField("b"))
	th.New(node)
	if err := rt.StartGC(); err != nil {
		t.Fatal(err)
	}
	if rt.GCActive() {
		t.Fatal("budget 0: StartGC left a cycle active")
	}
	if got := rt.Stats().GC.Collections; got != 1 {
		t.Fatalf("budget 0: StartGC ran %d collections, want 1", got)
	}
	if done, err := rt.GCStep(); err != nil || !done {
		t.Fatalf("budget 0: GCStep = (%v, %v), want (true, nil)", done, err)
	}
	if err := rt.FinishGC(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().GC.Collections; got != 1 {
		t.Fatalf("budget 0: Step/Finish ran extra collections (total %d)", got)
	}
}

// TestRegistrationForcesCompletion: registering an assertion while a cycle is
// open completes the cycle first — registration is a snapshot-boundary
// operation — whoever opened the cycle, and with or without the scheduler's
// goroutine. The open cycle's snapshot holds a pre-registered assert-dead
// violation; after the registering call the cycle is closed and counted, that
// violation and no other has been reported, and the new assertion's verdict
// arrives at the next collection exactly as on a stop-the-world runtime
// running the same script.
func TestRegistrationForcesCompletion(t *testing.T) {
	// The script. A chain long enough that no cycle over it completes by
	// assists alone hangs off g[0]; dead (g[1]) and x (g[2]) both point at
	// shared. grows < 0 grows the chain until the scheduler opens a cycle;
	// otherwise the cycle is opened by hand after that many links. Returns
	// the links grown and the violations before and after the final GC.
	run := func(t *testing.T, cfg Config, grows int, register func(f *incFix, dead, x, shared Ref) error) (int, []string, []string) {
		cfg.HeapWords = 1 << 13
		f := newIncFixOn(cfg)
		rt := f.rt
		dead, x, shared := f.newNode(0), f.newNode(1), f.newNode(2)
		f.g[1].Set(dead)
		f.g[2].Set(x)
		rt.SetRef(dead, f.aOff, shared)
		rt.SetRef(x, f.aOff, shared)
		f.drop()
		if err := rt.AssertDead(dead); err != nil {
			t.Fatal(err)
		}
		grow := func() {
			n := f.newNode(0)
			rt.SetRef(n, f.aOff, f.g[0].Get())
			f.g[0].Set(n)
			f.drop()
		}
		if grows < 0 {
			for grows = 0; !rt.GCActive() && rt.Stats().GC.IncrementalCycles == 0; grows++ {
				if grows > 1<<13 {
					t.Fatal("the scheduler never opened a cycle")
				}
				grow()
			}
		} else {
			for i := 0; i < grows; i++ {
				grow()
			}
			if err := rt.StartGC(); err != nil {
				t.Fatal(err)
			}
		}
		if cfg.IncrementalBudget > 0 && !cfg.ConcurrentGC && !rt.GCActive() {
			t.Fatal("vacuous: no cycle open at the registration") // the goroutine may win this race
		}
		if err := register(f, dead, x, shared); err != nil {
			t.Fatal(err)
		}
		if rt.GCActive() {
			t.Fatal("registration did not complete the open cycle")
		}
		if got := rt.Stats().GC.IncrementalCycles; cfg.IncrementalBudget > 0 && got != 1 {
			t.Fatalf("IncrementalCycles = %d after the registration, want the snapshot's cycle counted once", got)
		}
		before := renderKinds(rt)
		if err := rt.GC(); err != nil {
			t.Fatal(err)
		}
		after := renderKinds(rt)
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		return grows, before, after
	}

	kinds := []struct {
		name, verdict string
		register      func(f *incFix, dead, x, shared Ref) error
	}{
		{"AssertDead", "assert-dead", func(f *incFix, _, x, _ Ref) error { return f.rt.AssertDead(x) }},
		{"AssertUnshared", "assert-unshared", func(f *incFix, _, _, shared Ref) error { return f.rt.AssertUnshared(shared) }},
		{"AssertInstances", "assert-instances", func(f *incFix, _, _, _ Ref) error { return f.rt.AssertInstances(f.node, 1) }},
		{"AssertOwnedBy", "assert-ownedby", func(f *incFix, dead, x, _ Ref) error { return f.rt.AssertOwnedBy(dead, x) }},
		{"AssertAllDead", "assert-alldead", func(f *incFix, _, _, _ Ref) error {
			// StartRegion does not force; the bracket's one object is born
			// black inside the open cycle.
			if err := f.th.StartRegion(); err != nil {
				return err
			}
			f.g[3].Set(f.newNode(0))
			f.drop()
			return f.th.AssertAllDead()
		}},
	}
	count := func(vs []string, prefix string) (n int) {
		for _, v := range vs {
			if strings.HasPrefix(v, prefix) {
				n++
			}
		}
		return n
	}
	for _, cfg := range []struct {
		name string
		cfg  Config
	}{
		{"incremental", Config{IncrementalBudget: 4}},
		{"concurrent", Config{IncrementalBudget: 4, ConcurrentGC: true}},
	} {
		for _, opener := range []struct {
			name  string
			grows int
		}{{"StartGC", 600}, {"scheduler", -1}} {
			for _, k := range kinds {
				t.Run(cfg.name+"/"+opener.name+"/"+k.name, func(t *testing.T) {
					grows, before, after := run(t, cfg.cfg, opener.grows, k.register)
					if strings.Join(before, ",") != "assert-dead 0/0" {
						t.Fatalf("the forced completion reported %v, want the snapshot's one dead violation", before)
					}
					if count(after, k.verdict) <= count(before, k.verdict) {
						t.Fatalf("the next collection reported %v: no %s verdict", after, k.verdict)
					}
					_, stwBefore, stwAfter := run(t, Config{}, grows, k.register)
					if !reflect.DeepEqual(before, stwBefore) || !reflect.DeepEqual(after, stwAfter) {
						t.Fatalf("verdicts differ from stop-the-world:\n got %v then %v\nwant %v then %v", before, after, stwBefore, stwAfter)
					}
				})
			}
		}
	}
}

// TestIncrementalAllocationTrigger: with no explicit GC calls at all, the
// scheduler's one trigger rule opens a cycle when occupancy reaches the
// threshold — never below it — and the assists of the allocations that
// follow complete it.
func TestIncrementalAllocationTrigger(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 10, Mode: Infrastructure, IncrementalBudget: 8})
	node := rt.DefineClass("Node", RefField("a"), RefField("b"))
	th := rt.MainThread()
	for i := 0; i < 400; i++ {
		used, triggers := rt.heap.CapacityWords()-rt.heap.FreeWords(), rt.pacer.stats.Triggers
		th.New(node) // unrooted: pure garbage
		if rt.pacer.stats.Triggers > triggers && used < rt.pacer.triggerWords {
			t.Fatalf("allocation %d opened a cycle at %d words used, threshold %d", i, used, rt.pacer.triggerWords)
		}
	}
	s := rt.Stats()
	if s.Pacer.Triggers == 0 || s.Pacer.Cycles == 0 {
		t.Fatalf("allocation pressure never ran a scheduled cycle: %+v", s.Pacer)
	}
	if s.Pacer.Assists == 0 || s.GC.MarkSlices == 0 {
		t.Fatalf("no assist marked: %+v, %d mark slices", s.Pacer, s.GC.MarkSlices)
	}
	if s.GC.IncrementalCycles != s.Pacer.Cycles {
		t.Fatalf("collector completed %d incremental cycles, the scheduler %d", s.GC.IncrementalCycles, s.Pacer.Cycles)
	}
	if errs := rt.VerifyHeap(); len(errs) > 0 {
		t.Fatalf("heap corrupt: %v", errs)
	}
}
