package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/gc"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// TestConcurrentConfigValidation pins down the Config contract: every
// invalid combination panics at New, and the valid corners construct and
// close cleanly.
func TestConcurrentConfigValidation(t *testing.T) {
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
	mustPanic("base mode", Config{HeapWords: 1 << 12, Mode: Base, ConcurrentGC: true})

	valid := []Config{
		{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true},
		{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true, gcTrigger: 0.9, assistSlack: 2},
		{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true, AllocBuffers: 128},
		{HeapWords: 1 << 12, Mode: Infrastructure, IncrementalBudget: 4, gcTrigger: 0.9, assistSlack: 2},
	}
	for _, cfg := range valid {
		rt := New(cfg)
		if rt.pacer == nil {
			t.Fatalf("New(%+v) did not start a pacer", cfg)
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("Close(%+v): %v", cfg, err)
		}
	}
}

// TestCloseIdempotent: Close is safe to repeat, and a no-op on a
// non-concurrent runtime.
func TestCloseIdempotent(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true})
	if err := rt.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The runtime stays fully usable after Close, as documented.
	th := rt.MainThread()
	fr := th.PushFrame(1)
	fr.NewDataArray(0, 8)
	if err := rt.GC(); err != nil {
		t.Fatalf("GC after Close: %v", err)
	}

	stw := New(Config{HeapWords: 1 << 12, Mode: Infrastructure})
	if err := stw.Close(); err != nil {
		t.Fatalf("Close without ConcurrentGC: %v", err)
	}
}

// TestPacerSizing checks the trigger/cap arithmetic newPacer derives from
// the heap capacity, including the small-heap floor on the growth cap, with
// and without the background goroutine.
func TestPacerSizing(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		rt := New(Config{HeapWords: 1 << 14, Mode: Infrastructure, IncrementalBudget: 8, ConcurrentGC: concurrent,
			gcTrigger: 0.25, assistSlack: 0.5})
		defer rt.Close()
		capacity := float64(rt.heap.CapacityWords())
		if want := uint64(0.25 * capacity); rt.pacer.triggerWords != want {
			t.Errorf("triggerWords = %d, want %d", rt.pacer.triggerWords, want)
		}
		if want := uint64(0.25 * 0.5 * capacity); rt.pacer.capWords != want {
			t.Errorf("capWords = %d, want %d", rt.pacer.capWords, want)
		}
		if got := rt.Stats().Pacer.GrowthCapWords; got != rt.pacer.capWords {
			t.Errorf("GrowthCapWords = %d, want %d", got, rt.pacer.capWords)
		}
	}

	// Zero fractions select the documented defaults.
	rt2 := New(Config{HeapWords: 1 << 14, Mode: Infrastructure, IncrementalBudget: 8})
	if want := uint64(defaultGCTrigger * float64(rt2.heap.CapacityWords())); rt2.pacer.triggerWords != want {
		t.Errorf("default triggerWords = %d, want %d", rt2.pacer.triggerWords, want)
	}
	if want := uint64(defaultGCTrigger * defaultAssistSlack * float64(rt2.heap.CapacityWords())); rt2.pacer.capWords != want {
		t.Errorf("default capWords = %d, want %d", rt2.pacer.capWords, want)
	}

	// A tiny heap floors the cap so forced finishes stay occasional rather
	// than per-allocation.
	rt3 := New(Config{HeapWords: 256, Mode: Infrastructure, IncrementalBudget: 8,
		gcTrigger: 0.1, assistSlack: 0.1})
	if want := uint64(4 * carveSlackWords); rt3.pacer.capWords != want {
		t.Errorf("floored capWords = %d, want %d", rt3.pacer.capWords, want)
	}
}

// TestIncrementalOnlyStartsNoGoroutine: IncrementalBudget alone gets the
// scheduler without its goroutine, and the runtime stays in the lock-free
// single-mutator regime until NewThread — ConcurrentGC is what adds the
// goroutine and the shared regime. startBackground is the only go statement
// in the package's non-test code, so a pacer without its channels, before and
// after the cycles and Close, is a runtime that started no goroutine.
func TestIncrementalOnlyStartsNoGoroutine(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure, IncrementalBudget: 8})
	noGoroutine := func(when string) {
		if p := rt.pacer; p == nil || p.quit != nil || p.wake != nil || p.done != nil {
			t.Fatalf("%s: pacer = %+v, want a scheduler with no background channels", when, p)
		}
	}
	noGoroutine("after New")
	if !rt.solo() {
		t.Fatal("a scheduler without its goroutine left the single-mutator regime")
	}
	th := rt.MainThread()
	for i := 0; i < 2000; i++ { // enough churn to run scheduled cycles
		th.NewDataArray(8)
	}
	if s := rt.Stats().Pacer; s.Cycles == 0 || s.BackgroundSlices != 0 {
		t.Fatalf("pacer stats %+v: want cycles completed by assists alone", s)
	}
	if !rt.solo() {
		t.Fatal("scheduled cycles left the single-mutator regime")
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	noGoroutine("after Close")
	rt.NewThread("second")
	if rt.solo() {
		t.Fatal("NewThread did not leave the single-mutator regime")
	}
}

// pacerFix is a goroutine-less scheduler runtime with a chain class: a long
// chain of small objects makes a cycle's work estimate dwarf the slice
// budget, and — because the tracer can only discover one chain link per
// scanned object — marking progress per slice stays near the budget, so no
// single assist can complete the cycle.
type pacerFix struct {
	rt      *Runtime
	p       *gcPacer
	th      *Thread
	fr      *Frame
	node    *Class
	nextOff uint16
}

func newPacerFix(heapWords int) *pacerFix {
	rt := New(Config{HeapWords: heapWords, Mode: Infrastructure, IncrementalBudget: 8,
		gcTrigger: 0.5, assistSlack: 0.5})
	f := &pacerFix{rt: rt, p: rt.pacer, th: rt.MainThread()}
	f.fr = f.th.PushFrame(1)
	f.node = rt.DefineClass("ANode", RefField("next"))
	f.nextOff = f.node.MustFieldIndex("next")
	return f
}

// grow prepends one node to the rooted chain.
func (f *pacerFix) grow() {
	n := f.th.New(f.node)
	f.rt.SetRef(n, f.nextOff, f.fr.Local(0))
	f.fr.SetLocal(0, n)
}

// checkOwner holds the pacer to the collector's own cycle state.
func (f *pacerFix) checkOwner(t *testing.T) {
	t.Helper()
	if f.p.active != f.rt.collector.IncrementalActive() {
		t.Fatalf("pacer.active = %v but collector.IncrementalActive() = %v", f.p.active, f.rt.collector.IncrementalActive())
	}
}

// TestPacerStateTransitions walks every scheduler transition on a runtime
// with no goroutine — idle→triggered→marking→finished, the no-retrigger
// guard, and the growth-based retrigger — by allocating and by the forced
// entry points, with the collector's own cycle state as the oracle at each
// step.
func TestPacerStateTransitions(t *testing.T) {
	f := newPacerFix(1 << 13)
	p, rt := f.p, f.rt
	used := func() uint64 { return rt.heap.CapacityWords() - rt.heap.FreeWords() }

	// Idle and under threshold: the trigger must not fire.
	if p.triggerLocked() {
		t.Fatal("trigger fired on a near-empty heap")
	}

	// Cross the threshold with live, published data. The check runs before
	// each allocation, so the trigger fires at the first allocation that
	// finds the heap at the threshold — exactly once.
	for p.stats.Triggers == 0 {
		before := used()
		f.grow()
		if fired := p.stats.Triggers == 1; fired != (before >= p.triggerWords) {
			t.Fatalf("trigger fired = %v with %d words used, threshold %d", fired, before, p.triggerWords)
		}
	}
	f.checkOwner(t)
	if !p.active {
		t.Fatal("pacer not active after trigger")
	}
	if p.triggerLocked() {
		t.Fatal("started a second cycle while one is active")
	}
	for slices := 0; ; slices++ {
		done, err := rt.GCStep()
		if err != nil {
			t.Fatal(err)
		}
		f.checkOwner(t)
		if done {
			break
		}
		if slices > 10000 {
			t.Fatal("mark phase never drained")
		}
	}
	if p.active || p.stats.Cycles != 1 || p.stats.Triggers != 1 {
		t.Fatalf("after one cycle: active=%v stats=%+v", p.active, p.stats)
	}
	if p.floorFree == 0 {
		t.Fatal("finish did not record the retrigger baseline")
	}

	// Everything allocated is still live, so occupancy remains over the
	// threshold — but the heap has not grown since the cycle, and
	// re-collecting a large idle heap would spin. The trigger refires once
	// the heap has grown past the retrigger floor, and not before.
	if p.triggerLocked() {
		t.Fatal("retriggered with no heap growth since the last cycle")
	}
	for p.stats.Triggers == 1 {
		grown := p.floorFree - rt.heap.FreeWords()
		f.grow()
		if fired := p.stats.Triggers == 2; fired != (grown >= p.minRetrigger()) {
			t.Fatalf("retrigger fired = %v after %d words of growth, floor %d", fired, grown, p.minRetrigger())
		}
	}
	f.checkOwner(t)
	if err := rt.FinishGC(); err != nil {
		t.Fatal(err)
	}
	f.checkOwner(t)
	if p.stats.Triggers != 2 || p.stats.Cycles != 2 {
		t.Fatalf("Triggers/Cycles = %d/%d, want 2/2", p.stats.Triggers, p.stats.Cycles)
	}
	if errs := rt.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("heap corrupt: %v", errs[0])
	}
}

// TestPacerAssistSchedule checks the proportional assist tax on a cycle
// opened by hand: a mutator behind schedule pays bounded mark slices (never
// more than maxAssistSlices), an over-schedule mutator pays nothing, and an
// idle scheduler taxes nothing.
func TestPacerAssistSchedule(t *testing.T) {
	f := newPacerFix(1 << 13)
	p, rt := f.p, f.rt
	for i := 0; i < 1024; i++ { // 3 072 words: under the 4 096-word threshold
		f.grow()
	}
	if p.stats.Triggers != 0 {
		t.Fatal("test geometry broken: the chain crossed the trigger")
	}

	// No open cycle: the tax is a no-op.
	p.assistLocked(64)
	if p.stats.Assists != 0 {
		t.Fatalf("assist ran with no cycle active")
	}

	if err := rt.StartGC(); err != nil {
		t.Fatal(err)
	}
	f.checkOwner(t)
	if p.startWork == 0 {
		t.Fatal("cycle recorded no work estimate")
	}
	need := p.capWords / 2
	required := uint64(float64(p.startWork) * float64(need) / float64(p.capWords))
	// One assist advances marking by at most 4 slices x budget, far short
	// of required.
	if required <= 200 {
		t.Fatalf("test geometry broken: required %d within one assist", required)
	}
	before := rt.collector.CycleMarked()
	p.assistLocked(need)
	if p.stats.Assists != 1 {
		t.Fatalf("Assists = %d after one behind-schedule assist", p.stats.Assists)
	}
	if p.stats.AssistSlices == 0 || p.stats.AssistSlices > maxAssistSlices {
		t.Fatalf("AssistSlices = %d, want 1..%d", p.stats.AssistSlices, maxAssistSlices)
	}
	if after := rt.collector.CycleMarked(); after <= before {
		t.Fatalf("assist made no mark progress (%d -> %d)", before, after)
	}
	if p.stats.ForcedFinishes != 0 {
		t.Fatal("assist hit the hard cap unexpectedly")
	}
	if !p.active {
		t.Fatal("cycle ended although the schedule was unmet and the cap untouched")
	}

	// Still behind schedule: a second allocation pays again.
	p.assistLocked(need)
	if p.stats.Assists != 2 {
		t.Fatalf("Assists = %d after second behind-schedule assist", p.stats.Assists)
	}

	// Step the trace by hand; once marking is ahead of the schedule the tax
	// stops charging slices.
	for rt.collector.CycleMarked() < required {
		if done, err := rt.GCStep(); done || err != nil {
			t.Fatalf("GCStep = (%v, %v) before marking reached the schedule", done, err)
		}
	}
	assists := p.stats.Assists
	slices := p.stats.AssistSlices
	p.assistLocked(need)
	if p.stats.AssistSlices != slices {
		t.Fatalf("ahead-of-schedule assist ran %d extra slices", p.stats.AssistSlices-slices)
	}
	if p.stats.Assists != assists {
		t.Fatalf("ahead-of-schedule assist was counted (%d -> %d)", assists, p.stats.Assists)
	}

	if err := rt.FinishGC(); err != nil {
		t.Fatal(err)
	}
	f.checkOwner(t)
	if p.stats.Cycles != 1 || p.active {
		t.Fatalf("cycle did not finish cleanly: cycles=%d active=%v", p.stats.Cycles, p.active)
	}
}

// TestPacerHardCapForcesFinish: an allocation whose growth would exceed
// the cap completes the cycle instead of marking — the transition that
// makes the growth bound exact.
func TestPacerHardCapForcesFinish(t *testing.T) {
	f := newPacerFix(1 << 12)
	p, rt := f.p, f.rt
	for i := 0; i < 256; i++ {
		f.grow()
	}
	if err := rt.StartGC(); err != nil {
		t.Fatal(err)
	}
	p.assistLocked(p.capWords)
	if p.stats.ForcedFinishes != 1 {
		t.Fatalf("ForcedFinishes = %d, want 1", p.stats.ForcedFinishes)
	}
	f.checkOwner(t)
	if p.active {
		t.Fatal("cycle survived a forced finish")
	}
	if p.stats.Cycles != 1 {
		t.Fatalf("Cycles = %d after forced finish", p.stats.Cycles)
	}
}

// TestSchedulerDeterministic: without its goroutine the scheduler is a pure
// function of the mutator's script — the same seeded allocate/store/GCStep
// script run twice yields identical PacerStats, collector statistics (clock
// readings aside) and live set, to the address. That is what lets the
// incremental differentials, the oracle and FuzzIncrementalBarrier cover
// scheduler-opened cycles and born-black carves reproducibly.
func TestSchedulerDeterministic(t *testing.T) {
	run := func(buf int) (PacerStats, gc.Stats, []LiveObject) {
		rt := New(Config{HeapWords: 1 << 13, Mode: Infrastructure, IncrementalBudget: 2, AllocBuffers: buf})
		th := rt.MainThread()
		const slots = 16
		fr := th.PushFrame(slots)
		node := rt.DefineClass("DNode", RefField("a"), RefField("b"))
		aOff := node.MustFieldIndex("a")
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 6000; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				n := th.New(node)
				rt.SetRef(n, aOff, fr.Local(rng.Intn(slots))) // chains keep cycles open across allocations
				fr.SetLocal(rng.Intn(slots), n)
			case 4, 5:
				fr.NewRefArray(rng.Intn(slots), 1+rng.Intn(16))
			case 6:
				fr.NewDataArray(rng.Intn(slots), 1+rng.Intn(32))
			case 7:
				src, dst := fr.Local(rng.Intn(slots)), fr.Local(rng.Intn(slots))
				if src != Nil && rt.ClassOf(src) == node {
					rt.SetRef(src, aOff, dst)
				}
			case 8:
				fr.SetLocal(rng.Intn(slots), Nil)
			case 9:
				if _, err := rt.GCStep(); err != nil {
					t.Fatalf("GCStep: %v", err)
				}
			}
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s := rt.Stats()
		s.GC.GCTime, s.GC.MaxPause = 0, 0
		if s.Pacer.Cycles == 0 || s.Pacer.Assists == 0 || s.GC.BarrierScans == 0 {
			t.Fatalf("vacuous: pacer %+v, %d barrier scans", s.Pacer, s.GC.BarrierScans)
		}
		if buf > 0 && s.Heap.BufferCarves == 0 {
			t.Fatal("vacuous: the buffered run carved nothing")
		}
		return s.Pacer, s.GC, rt.LiveSet()
	}
	for _, buf := range []int{0, 128} {
		p1, g1, l1 := run(buf)
		p2, g2, l2 := run(buf)
		if p1 != p2 {
			t.Errorf("AllocBuffers %d: PacerStats differ:\n%+v\n%+v", buf, p1, p2)
		}
		if !reflect.DeepEqual(g1, g2) {
			t.Errorf("AllocBuffers %d: gc.Stats differ:\n%+v\n%+v", buf, g1, g2)
		}
		if !reflect.DeepEqual(l1, l2) {
			t.Errorf("AllocBuffers %d: live sets differ (%d vs %d objects)", buf, len(l1), len(l2))
		}
	}
}

// TestConcurrentGCBackground is the end-to-end check: with no explicit GC
// calls at all, the background pacer keeps a churning mutator collected,
// telemetry sees the triggers, and after Close the runtime still runs
// explicit collections and assertion checks.
func TestConcurrentGCBackground(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 13, Mode: Infrastructure, ConcurrentGC: true,
		AllocBuffers: 128, Telemetry: &telemetry.Config{}})
	th := rt.MainThread()
	fr := th.PushFrame(1)
	node := rt.DefineClass("BNode", RefField("a"))

	deadline := time.Now().Add(30 * time.Second)
	for rt.Stats().Pacer.Cycles < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("pacer completed no cycles; stats: %+v", rt.Stats().Pacer)
		}
		// Publish, then drop: pure garbage churn.
		fr.NewRefArray(0, 32)
		fr.SetLocal(0, Nil)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s := rt.Stats().Pacer
	if s.Triggers == 0 || s.Cycles == 0 {
		t.Fatalf("no background collection happened: %+v", s)
	}
	if s.MaxCycleGrowthWords > s.GrowthCapWords {
		t.Fatalf("cycle growth %d exceeded cap %d", s.MaxCycleGrowthWords, s.GrowthCapWords)
	}
	if m := rt.Metrics(); m.Triggers == 0 {
		t.Fatalf("telemetry recorded no triggers: %+v", m)
	}
	if errs := rt.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("heap corrupt after concurrent run: %v", errs[0])
	}

	// The quiesced runtime behaves like its synchronous twin.
	keep := fr.New(0, node)
	if err := rt.AssertDead(keep); err != nil {
		t.Fatalf("AssertDead: %v", err)
	}
	if err := rt.GC(); err != nil {
		t.Fatalf("GC after Close: %v", err)
	}
	vs := rt.Violations()
	found := false
	for _, v := range vs {
		if v.Kind == report.DeadReachable && v.Object == keep {
			found = true
		}
	}
	if !found {
		t.Fatalf("assert-dead on a rooted object reported no violation: %v", vs)
	}
}

// TestAssistGrowthCapInvariant is the property test behind the pacer's
// central guarantee: with assists enabled, heap growth during any cycle
// never exceeds trigger × slack × capacity (as floored by newPacer),
// across pacer geometries and allocation modes — the
// live-run counterpart of the hand-driven hard-cap test.
func TestAssistGrowthCapInvariant(t *testing.T) {
	cases := []struct {
		name           string
		trigger, slack float64
		buf            int
	}{
		{"defaults-direct", 0, 0, 0},
		{"tight-slack-buffered", 0.5, 0.25, 256},
		{"low-trigger-wide-slack", 0.25, 1.0, 128},
		{"high-trigger-buffered", 0.6, 0.5, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Config{HeapWords: 1 << 13, Mode: Infrastructure,
				ConcurrentGC: true, gcTrigger: tc.trigger, assistSlack: tc.slack,
				AllocBuffers: tc.buf})
			th := rt.MainThread()
			fr := th.PushFrame(4)
			node := rt.DefineClass("GNode", RefField("a"), RefField("b"))
			aOff := node.MustFieldIndex("a")
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 6000; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					fr.New(rng.Intn(4), node)
				case 4, 5:
					fr.NewRefArray(rng.Intn(4), 1+rng.Intn(16))
				case 6:
					fr.NewDataArray(rng.Intn(4), 1+rng.Intn(32))
				case 7:
					src, dst := fr.Local(rng.Intn(4)), fr.Local(rng.Intn(4))
					if src != Nil && rt.ClassOf(src) == node {
						rt.SetRef(src, aOff, dst)
					}
				case 8:
					fr.SetLocal(rng.Intn(4), Nil)
				case 9:
					if rng.Intn(100) == 0 {
						if err := rt.GC(); err != nil {
							t.Fatalf("GC: %v", err)
						}
					}
				}
			}
			if err := rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s := rt.Stats().Pacer
			if s.Cycles == 0 {
				t.Fatalf("pacer never completed a cycle: %+v", s)
			}
			if s.MaxCycleGrowthWords > s.GrowthCapWords {
				t.Fatalf("cycle growth %d exceeded cap %d (stats %+v)",
					s.MaxCycleGrowthWords, s.GrowthCapWords, s)
			}
			if errs := rt.VerifyHeap(); len(errs) != 0 {
				t.Fatalf("heap corrupt: %v", errs[0])
			}
		})
	}
}
