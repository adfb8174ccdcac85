package core

import (
	"bytes"
	"math/bits"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vmheap"
)

func TestMetricsDisabledIsZero(t *testing.T) {
	rt := newRT(t, 1<<12)
	if rt.Telemetry() != nil {
		t.Fatal("Telemetry() should be nil when Config.Telemetry is unset")
	}
	node := rt.DefineClass("Node")
	rt.MainThread().New(node)
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.Events != 0 || m.Cycles != 0 || len(m.Phases) != 0 {
		t.Errorf("disabled runtime leaked metrics: %+v", m)
	}
}

func TestTelemetryFullCollectionFlow(t *testing.T) {
	var sink bytes.Buffer
	rt := New(Config{
		HeapWords: 1 << 12,
		Mode:      Infrastructure,
		Telemetry: &telemetry.Config{Sink: &sink},
	})
	node := rt.DefineClass("Node", RefField("next"))
	th := rt.MainThread()
	g := rt.AddGlobal("keep")
	g.Set(th.New(node))

	dead := th.New(node)
	if err := rt.AssertDead(dead); err != nil {
		t.Fatal(err)
	}
	g2 := rt.AddGlobal("leak")
	g2.Set(dead) // violates assert-dead

	const cycles = 3
	for i := 0; i < cycles; i++ {
		if err := rt.GC(); err != nil {
			t.Fatal(err)
		}
	}

	m := rt.Metrics()
	if m.Cycles != cycles {
		t.Errorf("Cycles = %d, want %d", m.Cycles, cycles)
	}
	if m.Pause.Count != cycles {
		t.Errorf("Pause.Count = %d, want %d", m.Pause.Count, cycles)
	}
	if len(m.Violations) != 1 || m.Violations["assert-dead"] != cycles {
		t.Errorf("Violations = %v, want assert-dead=%d (one hit per cycle)", m.Violations, cycles)
	}
	// Every cycle runs exactly one serial infrastructure mark and one sweep.
	var mark, sweep *telemetry.PhaseSummary
	for i := range m.Phases {
		switch m.Phases[i].Phase {
		case "mark":
			mark = &m.Phases[i]
		case "sweep":
			sweep = &m.Phases[i]
		}
	}
	if mark == nil || mark.Count != cycles {
		t.Errorf("mark phase summary = %+v, want count %d", mark, cycles)
	}
	if sweep == nil || sweep.Count != cycles {
		t.Errorf("sweep phase summary = %+v, want count %d", sweep, cycles)
	}

	// The NDJSON stream round-trips to the same counts.
	evs, err := telemetry.ReadEvents(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatal(err)
	}
	sum := telemetry.Summarize(evs)
	if sum.Cycles != cycles {
		t.Errorf("NDJSON Cycles = %d, want %d", sum.Cycles, cycles)
	}
	if sum.Violations["assert-dead"] != cycles {
		t.Errorf("NDJSON assert-dead = %d, want %d", sum.Violations["assert-dead"], cycles)
	}
	if uint64(len(evs)) != m.Events {
		t.Errorf("NDJSON carried %d events, recorder counted %d", len(evs), m.Events)
	}
}

func TestTelemetryBufferCarveRetire(t *testing.T) {
	rt := New(Config{
		HeapWords:    1 << 14,
		Mode:         Infrastructure,
		AllocBuffers: vmheap.MinBufferWords,
		Telemetry:    &telemetry.Config{},
	})
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	for i := 0; i < 200; i++ {
		th.New(node)
	}
	if err := rt.GC(); err != nil { // flushes (retires) the active buffer
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.Carves == 0 {
		t.Fatal("no carve events recorded under AllocBuffers")
	}
	if m.Retires != m.Carves {
		t.Errorf("Retires = %d, Carves = %d; every carve is retired by GC", m.Retires, m.Carves)
	}
	st := rt.Stats()
	if m.Carves != st.Heap.BufferCarves {
		t.Errorf("telemetry Carves = %d, heap BufferCarves = %d", m.Carves, st.Heap.BufferCarves)
	}
	if m.UsedWords+m.TailWords != m.CarveWords {
		t.Errorf("used %d + tail %d != carved %d", m.UsedWords, m.TailWords, m.CarveWords)
	}
}

// TestTelemetrySweepsMatchStats: Stats and the telemetry stream count the
// same sweep passes, and a fully buffered run reports every allocation as a
// buffer allocation.
func TestTelemetrySweepsMatchStats(t *testing.T) {
	rt := New(Config{
		HeapWords: 1 << 14, Mode: Infrastructure,
		AllocBuffers: 64, Telemetry: &telemetry.Config{},
	})
	node := rt.DefineClass("Node", RefField("a"))
	th := rt.MainThread()
	for round := 0; round < 2; round++ {
		for i := 0; i < 2000; i++ {
			th.New(node) // garbage, so the sweep has work
		}
		if err := rt.GC(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		th.New(node)
	}

	st, m := rt.Stats(), rt.Metrics()
	if st.GC.Collections < 2 || st.GC.FreedObjects == 0 {
		t.Fatalf("the script no longer collects garbage: %+v", st.GC)
	}
	var sweeps uint64
	for _, p := range m.Phases {
		if p.Phase == telemetry.PhaseSweep.String() {
			sweeps = p.Count
		}
	}
	if sweeps != st.GC.Collections {
		t.Errorf("Stats().GC counts %d collections, telemetry recorded %d sweeps", st.GC.Collections, sweeps)
	}
	if st.Heap.BufferAllocs != st.Heap.TotalAllocs {
		t.Errorf("Stats().Heap.BufferAllocs = %d of %d allocations, all of them buffered", st.Heap.BufferAllocs, st.Heap.TotalAllocs)
	}
}

func TestTelemetryIncrementalPhases(t *testing.T) {
	rt := New(Config{
		HeapWords:         1 << 13,
		Mode:              Infrastructure,
		IncrementalBudget: 8,
		Telemetry:         &telemetry.Config{},
	})
	node := rt.DefineClass("Node", RefField("next"))
	next := node.MustFieldIndex("next")
	th := rt.MainThread()
	g := rt.AddGlobal("list")
	head := th.New(node)
	g.Set(head)
	for i := 0; i < 100; i++ {
		n := th.New(node)
		rt.SetRef(n, next, g.Get())
		g.Set(n)
	}

	if err := rt.StartGC(); err != nil {
		t.Fatal(err)
	}
	for {
		done, err := rt.GCStep()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}

	m := rt.Metrics()
	want := map[string]bool{"inc_roots": false, "inc_slice": false, "inc_finish": false}
	for _, p := range m.Phases {
		if _, ok := want[p.Phase]; ok && p.Count > 0 {
			want[p.Phase] = true
		}
	}
	for phase, seen := range want {
		if !seen {
			t.Errorf("no %s span recorded over an incremental cycle", phase)
		}
	}
	if m.Cycles != 1 {
		t.Errorf("Cycles = %d, want 1", m.Cycles)
	}
	if m.Pause.Count < 3 {
		t.Errorf("Pause.Count = %d, want >= 3 (roots + >=1 slice + finish)", m.Pause.Count)
	}
}

// TestTelemetryBarrierSpans: the snapshot barrier records one inc_barrier
// span, and counts one BarrierScans, per store that scans — the first store
// into each not-yet-scanned object of an open cycle — and nothing for a store
// into a scanned object, a range move into one, or any store outside a cycle.
func TestTelemetryBarrierSpans(t *testing.T) {
	rt := New(Config{
		HeapWords:         1 << 13,
		Mode:              Infrastructure,
		IncrementalBudget: 1,
		Telemetry:         &telemetry.Config{},
	})
	node := rt.DefineClass("Node", RefField("next"))
	next := node.MustFieldIndex("next")
	th := rt.MainThread()
	f := th.PushFrame(3)
	f.SetLocal(0, th.New(node))
	f.SetLocal(1, th.New(node))
	f.SetLocal(2, th.NewRefArray(4))
	a, b, arr := f.Local(0), f.Local(1), f.Local(2)
	spans := func() uint64 {
		for _, p := range rt.Metrics().Phases {
			if p.Phase == "inc_barrier" {
				return p.Count
			}
		}
		return 0
	}
	check := func(when string, want uint64) {
		t.Helper()
		if s := rt.Stats().GC; s.BarrierScans != want || spans() != want {
			t.Errorf("%s: %d barrier scans, %d inc_barrier spans, want %d of each", when, s.BarrierScans, spans(), want)
		}
	}

	rt.SetRef(a, next, b)
	rt.ArrCopyRefs(arr, 0, arr, 1, 3)
	check("outside a cycle", 0)
	if err := rt.StartGC(); err != nil {
		t.Fatal(err)
	}
	rt.SetRef(a, next, Nil)
	check("first store into a", 1)
	rt.SetRef(a, next, b)
	rt.SetRef(a, next, Nil)
	check("later stores into a", 1)
	rt.ArrSetRef(arr, 0, a)
	check("first store into arr", 2)
	rt.ArrCopyRefs(arr, 1, arr, 0, 3)
	check("a move into the scanned arr", 2)
	if err := rt.FinishGC(); err != nil {
		t.Fatal(err)
	}
	rt.SetRef(b, next, a)
	check("after the cycle", 2)
	if got, want := rt.Stats().GC.BarrierRefs, uint64(1+4); got != want {
		t.Errorf("BarrierRefs = %d, want %d (a's field and arr's four elements)", got, want)
	}
}

// TestLiveMetricsEqualOfflineSummary drives every event kind through one
// runtime with a sink — a stop-the-world collection with an assert-dead
// violation, scheduled incremental cycles with triggers, assists and
// slices, buffer carves and retires, request spans, and a phase left
// running — and requires the live Metrics to equal Summarize over the
// stream: every count, total and max, the row names and their order, the
// violation map and the open phases. Each live quantile is the upper edge
// of the log2 bucket that holds the offline one, clamped to the row's max.
func TestLiveMetricsEqualOfflineSummary(t *testing.T) {
	var sink bytes.Buffer
	rt := New(Config{
		HeapWords:         1 << 13,
		Mode:              Infrastructure,
		IncrementalBudget: 8,
		AllocBuffers:      vmheap.MinBufferWords,
		Telemetry:         &telemetry.Config{Sink: &sink},
	})
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	dead := th.New(node)
	if err := rt.AssertDead(dead); err != nil {
		t.Fatal(err)
	}
	rt.AddGlobal("leak").Set(dead)
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		th.NewDataArray(8)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	tele := rt.Telemetry()
	find, add := tele.RequestOp("find"), tele.RequestOp("add")
	for i := 1; i <= 40; i++ {
		tele.Request(find, time.Duration(i*i)*time.Microsecond)
		tele.Request(add, time.Duration(i)*time.Millisecond)
	}
	tele.Begin(telemetry.PhaseSweep)

	live := rt.Metrics()
	events, err := telemetry.ReadEvents(&sink)
	if err != nil {
		t.Fatal(err)
	}
	want := telemetry.Summarize(events)
	if want.Triggers == 0 || want.Assists == 0 || want.Carves == 0 || want.Retires == 0 ||
		len(want.Violations) == 0 || len(want.Requests) != 2 || want.OpenPhases["sweep"] != 1 {
		t.Fatalf("the script no longer reaches every event kind: %+v", want)
	}
	edges := func(p *telemetry.PhaseSummary) {
		edge := func(v uint64) uint64 { return min(uint64(1)<<bits.Len64(v)-1, p.MaxNanos) }
		p.P50Nanos, p.P95Nanos, p.P99Nanos = edge(p.P50Nanos), edge(p.P95Nanos), edge(p.P99Nanos)
	}
	for _, rows := range [][]telemetry.PhaseSummary{want.Phases, want.Requests} {
		for i := range rows {
			edges(&rows[i])
		}
	}
	edges(&want.Pause)
	edges(&want.AllRequest)
	want.Dropped, want.SideTabChunkBytes = live.Dropped, live.SideTabChunkBytes
	if !reflect.DeepEqual(live, want) {
		t.Errorf("live metrics differ from the offline summary\nlive:    %+v\noffline: %+v", live, want)
	}
}
