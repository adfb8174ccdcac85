package core

import (
	"math/rand"
	"testing"
	"time"

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
	mustPanic("trigger at one", Config{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true, GCTriggerFraction: 1})
	mustPanic("trigger negative", Config{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true, GCTriggerFraction: -0.25})
	mustPanic("slack negative", Config{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true, GCAssistSlack: -1})
	mustPanic("trigger without concurrent", Config{HeapWords: 1 << 12, Mode: Infrastructure, GCTriggerFraction: 0.5})
	mustPanic("slack without concurrent", Config{HeapWords: 1 << 12, Mode: Infrastructure, GCAssistSlack: 0.5})

	valid := []Config{
		{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true},
		{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true, GCTriggerFraction: 0.9, GCAssistSlack: 2},
		{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true, Collector: Generational, AllocBuffers: 128},
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
	fr.SetLocal(0, th.NewDataArray(8))
	if err := rt.GC(); err != nil {
		t.Fatalf("GC after Close: %v", err)
	}

	stw := New(Config{HeapWords: 1 << 12, Mode: Infrastructure})
	if err := stw.Close(); err != nil {
		t.Fatalf("Close without ConcurrentGC: %v", err)
	}
}

// TestPacerSizing checks the trigger/cap arithmetic newPacer derives from
// the heap capacity, including the small-heap floor on the growth cap.
func TestPacerSizing(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 14, Mode: Infrastructure, ConcurrentGC: true,
		GCTriggerFraction: 0.25, GCAssistSlack: 0.5})
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

	// Zero fractions select the documented defaults.
	rt2 := New(Config{HeapWords: 1 << 14, Mode: Infrastructure, ConcurrentGC: true})
	defer rt2.Close()
	if want := uint64(defaultGCTrigger * float64(rt2.heap.CapacityWords())); rt2.pacer.triggerWords != want {
		t.Errorf("default triggerWords = %d, want %d", rt2.pacer.triggerWords, want)
	}
	if want := uint64(defaultGCTrigger * defaultAssistSlack * float64(rt2.heap.CapacityWords())); rt2.pacer.capWords != want {
		t.Errorf("default capWords = %d, want %d", rt2.pacer.capWords, want)
	}

	// A tiny heap floors the cap so forced finishes stay occasional rather
	// than per-allocation.
	rt3 := New(Config{HeapWords: 256, Mode: Infrastructure, ConcurrentGC: true,
		GCTriggerFraction: 0.1, GCAssistSlack: 0.1})
	defer rt3.Close()
	if want := uint64(4 * carveSlackWords); rt3.pacer.capWords != want {
		t.Errorf("floored capWords = %d, want %d", rt3.pacer.capWords, want)
	}
}

// fillPublished grows the live heap past words by publishing data arrays
// into a ref-array spine rooted in fr's slot.
func fillPublished(t *testing.T, rt *Runtime, th *Thread, fr *Frame, slot int, words uint64) {
	t.Helper()
	const spineLen = 192
	spine := th.NewRefArray(spineLen)
	fr.SetLocal(slot, spine)
	for i := 0; ; i++ {
		rt.mu.Lock()
		used := rt.heap.CapacityWords() - rt.heap.FreeWords()
		rt.mu.Unlock()
		if used >= words {
			return
		}
		if i >= spineLen {
			t.Fatalf("spine exhausted at %d used words, want %d", used, words)
		}
		rt.ArrSetRef(spine, i, th.NewDataArray(30))
	}
}

// TestPacerStateTransitions drives every pacer transition by hand —
// idle→triggered→marking→finished, the no-retrigger guard, and the
// growth-based retrigger — through the same locked entry points the
// background goroutine uses, with the collector's own cycle state as the
// oracle at each step. Close is called first so the background goroutine
// cannot race the hand-driven schedule.
func TestPacerStateTransitions(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true,
		GCTriggerFraction: 0.5, GCAssistSlack: 0.5, IncrementalBudget: 64})
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p := rt.pacer
	th := rt.MainThread()
	fr := th.PushFrame(2)
	locked := func(fn func()) {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		fn()
	}

	// Idle and under threshold: the trigger must not fire.
	locked(func() {
		if p.startLocked() {
			t.Error("trigger fired on a near-empty heap")
		}
	})
	if p.stats.Triggers != 0 {
		t.Fatalf("Triggers = %d before any trigger", p.stats.Triggers)
	}

	// Cross the threshold with live, published data; the trigger fires,
	// exactly once, and marking proceeds in slices to the finish arm.
	fillPublished(t, rt, th, fr, 0, p.triggerWords+64)
	locked(func() {
		if !p.startLocked() {
			t.Fatal("trigger did not fire above threshold")
		}
		if !p.active {
			t.Fatal("pacer not active after trigger")
		}
		if p.stats.Triggers != 1 {
			t.Fatalf("Triggers = %d after one trigger", p.stats.Triggers)
		}
		if !rt.collector.IncrementalActive() {
			t.Fatal("collector has no cycle in flight after trigger")
		}
		if p.startLocked() {
			t.Fatal("started a second cycle while one is active")
		}
		slices := 0
		for !rt.collector.StepMark() {
			if slices++; slices > 10000 {
				t.Fatal("mark phase never drained")
			}
		}
		p.finishLocked()
		if p.active {
			t.Fatal("pacer still active after finish")
		}
		if p.stats.Cycles != 1 {
			t.Fatalf("Cycles = %d after one finish", p.stats.Cycles)
		}
		if rt.collector.IncrementalActive() {
			t.Fatal("collector cycle survived finish")
		}
		if p.floorFree == 0 {
			t.Fatal("finish did not record the retrigger baseline")
		}
	})

	// Everything filled is still live, so occupancy remains over the
	// threshold — but the heap has not grown since the cycle, and
	// re-collecting a large idle heap would spin.
	locked(func() {
		if p.startLocked() {
			t.Error("retriggered with no heap growth since the last cycle")
		}
	})
	if p.stats.Triggers != 1 {
		t.Fatalf("Triggers = %d after guarded retrigger", p.stats.Triggers)
	}

	// Grow the live heap past the retrigger floor: the trigger fires again
	// and the second cycle completes.
	grow := int(p.minRetrigger()/21) + 2
	spine := th.NewRefArray(grow)
	fr.SetLocal(1, spine)
	for j := 0; j < grow; j++ {
		rt.ArrSetRef(spine, j, th.NewDataArray(20))
	}
	locked(func() {
		if !p.startLocked() {
			t.Fatal("trigger did not refire after heap growth")
		}
		for !rt.collector.StepMark() {
		}
		p.finishLocked()
		if p.stats.Triggers != 2 || p.stats.Cycles != 2 {
			t.Fatalf("Triggers/Cycles = %d/%d, want 2/2", p.stats.Triggers, p.stats.Cycles)
		}
	})
	if errs := rt.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("heap corrupt: %v", errs[0])
	}
}

// TestPacerAssistSchedule checks the proportional assist tax with the
// background goroutine stopped: a mutator behind schedule pays bounded
// mark slices (never more than maxAssistSlices), an over-schedule mutator
// pays nothing, and an inactive pacer taxes nothing.
func TestPacerAssistSchedule(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 13, Mode: Infrastructure, ConcurrentGC: true,
		GCTriggerFraction: 0.5, GCAssistSlack: 0.5, IncrementalBudget: 8})
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p := rt.pacer
	th := rt.MainThread()
	fr := th.PushFrame(2)
	node := rt.DefineClass("ANode", RefField("next"))

	// A long chain of small objects makes the cycle's work estimate dwarf
	// the 8-object slice budget, and — because the tracer can only discover
	// one chain link per scanned object — marking progress per slice stays
	// near the budget, so one assist cannot catch up on the schedule.
	nextOff := node.MustFieldIndex("next")
	head := Nil
	for i := 0; i < 1024; i++ {
		n := th.New(node)
		rt.SetRef(n, nextOff, head)
		head = n
		fr.SetLocal(0, head)
	}
	fillPublished(t, rt, th, fr, 1, p.triggerWords+64)

	rt.mu.Lock()
	defer rt.mu.Unlock()

	// No active cycle: the tax is a no-op.
	p.assistLocked(64)
	if p.stats.Assists != 0 {
		t.Fatalf("assist ran with no cycle active")
	}

	if !p.startLocked() {
		t.Fatal("trigger did not fire")
	}
	if p.startWork == 0 {
		t.Fatal("cycle recorded no work estimate")
	}
	need := p.capWords / 2
	required := uint64(float64(p.startWork) * float64(need) / float64(p.capWords))
	// The fill spine is the one fan-out object (~70 children marked in one
	// pop); everything else is chain, so one assist advances marking by at
	// most ~4 slices x budget + one spine burst, far short of required.
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

	// Drain the trace; once marking is ahead of the schedule the tax stops
	// charging slices.
	for rt.collector.CycleMarked() < required {
		if rt.collector.StepMark() {
			break
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

	for !rt.collector.StepMark() {
	}
	p.finishLocked()
	if p.stats.Cycles != 1 || p.active {
		t.Fatalf("cycle did not finish cleanly: cycles=%d active=%v", p.stats.Cycles, p.active)
	}
}

// TestPacerHardCapForcesFinish: an allocation whose growth would exceed
// the cap completes the cycle instead of marking — the transition that
// makes the growth bound exact.
func TestPacerHardCapForcesFinish(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true,
		GCTriggerFraction: 0.5, GCAssistSlack: 0.5, IncrementalBudget: 8})
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p := rt.pacer
	th := rt.MainThread()
	fr := th.PushFrame(1)
	fillPublished(t, rt, th, fr, 0, p.triggerWords+64)

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !p.startLocked() {
		t.Fatal("trigger did not fire")
	}
	p.assistLocked(p.capWords)
	if p.stats.ForcedFinishes != 1 {
		t.Fatalf("ForcedFinishes = %d, want 1", p.stats.ForcedFinishes)
	}
	if p.active || rt.collector.IncrementalActive() {
		t.Fatal("cycle survived a forced finish")
	}
	if p.stats.Cycles != 1 {
		t.Fatalf("Cycles = %d after forced finish", p.stats.Cycles)
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
		fr.SetLocal(0, th.NewRefArray(32))
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
	keep := th.New(node)
	fr.SetLocal(0, keep)
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
// across pacer geometries, allocation modes, and both collectors — the
// live-run counterpart of the hand-driven hard-cap test.
func TestAssistGrowthCapInvariant(t *testing.T) {
	cases := []struct {
		name           string
		trigger, slack float64
		buf            int
		collector      CollectorKind
	}{
		{"defaults-direct", 0, 0, 0, MarkSweep},
		{"tight-slack-buffered", 0.5, 0.25, 256, MarkSweep},
		{"low-trigger-wide-slack", 0.25, 1.0, 128, MarkSweep},
		{"high-trigger-generational", 0.6, 0.5, 256, Generational},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Config{HeapWords: 1 << 13, Mode: Infrastructure, Collector: tc.collector,
				ConcurrentGC: true, GCTriggerFraction: tc.trigger, GCAssistSlack: tc.slack,
				AllocBuffers: tc.buf})
			th := rt.MainThread()
			fr := th.PushFrame(4)
			node := rt.DefineClass("GNode", RefField("a"), RefField("b"))
			aOff := node.MustFieldIndex("a")
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 6000; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					fr.SetLocal(rng.Intn(4), th.New(node))
				case 4, 5:
					fr.SetLocal(rng.Intn(4), th.NewRefArray(1+rng.Intn(16)))
				case 6:
					fr.SetLocal(rng.Intn(4), th.NewDataArray(1+rng.Intn(32)))
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
