package telemetry

import (
	"bytes"
	"errors"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	r.CycleBegin()
	start := r.Begin(PhaseMark)
	if !start.IsZero() {
		t.Errorf("nil Begin returned non-zero time %v", start)
	}
	r.End(PhaseMark, start)
	r.Span(PhaseSweep, time.Millisecond)
	r.Pause(time.Millisecond)
	r.Carve(64)
	r.Retire(32, 32)
	r.Violation(0, "assert-dead")
	if got := r.Metrics(); got.Events != 0 {
		t.Errorf("nil Metrics = %+v, want zero", got)
	}
	if ev := r.Events(); ev != nil {
		t.Errorf("nil Events = %v, want nil", ev)
	}
}

func TestRecorderCountersAndEvents(t *testing.T) {
	var sink bytes.Buffer
	r := New(Config{RingSize: 8, Sink: &sink})

	r.CycleBegin()
	start := r.Begin(PhaseMark)
	r.End(PhaseMark, start)
	r.Span(PhaseSweep, 5*time.Millisecond)
	r.Pause(2 * time.Millisecond)
	r.Carve(1024)
	r.Retire(1000, 24)
	r.Violation(0, "assert-dead")
	r.Violation(0, "assert-dead")

	m := r.Metrics()
	if m.Cycles != 1 {
		t.Errorf("Cycles = %d, want 1", m.Cycles)
	}
	if m.Carves != 1 || m.CarveWords != 1024 {
		t.Errorf("Carves = %d/%d words, want 1/1024", m.Carves, m.CarveWords)
	}
	if m.Retires != 1 || m.UsedWords != 1000 || m.TailWords != 24 {
		t.Errorf("Retires = %d used %d tail %d, want 1/1000/24", m.Retires, m.UsedWords, m.TailWords)
	}
	if len(m.Violations) != 1 || m.Violations["assert-dead"] != 2 {
		t.Errorf("Violations = %v, want assert-dead=2", m.Violations)
	}
	if m.Pause.Count != 1 || m.Pause.TotalNanos != uint64(2*time.Millisecond) {
		t.Errorf("Pause = %+v", m.Pause)
	}
	var sweep *PhaseSummary
	for i := range m.Phases {
		if m.Phases[i].Phase == "sweep" {
			sweep = &m.Phases[i]
		}
	}
	if sweep == nil || sweep.Count != 1 || sweep.MaxNanos != uint64(5*time.Millisecond) {
		t.Fatalf("sweep summary = %+v", sweep)
	}
	if sweep.P99Nanos < sweep.MaxNanos/2 || sweep.P99Nanos > sweep.MaxNanos {
		t.Errorf("p99 %d outside factor-of-two bound of max %d", sweep.P99Nanos, sweep.MaxNanos)
	}

	// The sink saw one line per event, and the decoder round-trips them
	// into the same totals.
	evs, err := ReadEvents(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(evs)) != m.Events {
		t.Fatalf("sink carries %d events, recorder emitted %d", len(evs), m.Events)
	}
	s := Summarize(evs)
	if s.Cycles != m.Cycles || s.Carves != m.Carves || s.Retires != m.Retires {
		t.Errorf("summary %+v does not match metrics %+v", s, m)
	}
	if s.Violations["assert-dead"] != 2 {
		t.Errorf("summary violations = %v", s.Violations)
	}
	var markCount uint64
	for _, p := range s.Phases {
		if p.Phase == "mark" {
			markCount = p.Count
		}
	}
	if markCount != 1 {
		t.Errorf("summary mark count = %d, want 1", markCount)
	}
	if !strings.Contains(s.Format(), "mark") {
		t.Errorf("Format lacks phase table:\n%s", s.Format())
	}
}

func TestRingOverwriteCountsDropped(t *testing.T) {
	r := New(Config{RingSize: 4})
	for i := 0; i < 10; i++ {
		r.Pause(time.Duration(i))
	}
	m := r.Metrics()
	if m.Events != 10 || m.Dropped != 6 {
		t.Errorf("Events/Dropped = %d/%d, want 10/6", m.Events, m.Dropped)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
}

// failWriter fails every write after the first n.
type failWriter struct{ ok int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.ok > 0 {
		f.ok--
		return len(p), nil
	}
	return 0, errors.New("disk full")
}

func TestSinkErrorsAreCountedNotFatal(t *testing.T) {
	r := New(Config{RingSize: 8, Sink: &failWriter{ok: 2}})
	for i := 0; i < 5; i++ {
		r.Pause(time.Duration(i + 1))
	}
	m := r.Metrics()
	if m.SinkErrors != 3 {
		t.Errorf("SinkErrors = %d, want 3", m.SinkErrors)
	}
	if m.Events != 5 {
		t.Errorf("Events = %d, want 5 (a failing sink must not drop ring events)", m.Events)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New(Config{RingSize: 8})
	r.CycleBegin()
	r.Span(PhaseMark, time.Millisecond)
	r.Pause(time.Millisecond)
	r.Violation(0, "assert-dead")
	var out bytes.Buffer
	if err := r.Metrics().WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"gcassert_gc_cycles_total 1",
		`gcassert_phase_count{phase="mark"} 1`,
		"gcassert_pause_count 1",
		"gcassert_violations_total 1",
		`gcassert_violations_by_kind_total{kind="assert-dead"} 1`,
		"gcassert_telemetry_events_total 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output lacks %q:\n%s", want, text)
		}
	}
	if err := (Summary{}).WritePrometheus(&failWriter{}); err == nil {
		t.Error("WritePrometheus on a failing writer returned nil error")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	for i := 0; i < 99; i++ {
		h.Observe(100) // bit length 7 → bucket upper bound 127
	}
	h.Observe(1 << 20)
	if h.Count != 100 || h.Max != 1<<20 {
		t.Fatalf("count/max = %d/%d", h.Count, h.Max)
	}
	if q := h.Quantile(0.50); q < 100 || q > 200 {
		t.Errorf("p50 = %d, want within a factor of two of 100", q)
	}
	if q := h.Quantile(1.0); q != 1<<20 {
		t.Errorf("p100 = %d, want exact max %d", q, 1<<20)
	}
}

func TestReadEventsRejectsMalformedLine(t *testing.T) {
	_, err := ReadEvents(strings.NewReader("{\"seq\":1,\"ev\":\"pause\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line-2 parse error", err)
	}
}

func TestEmitDoesNotAllocate(t *testing.T) {
	r := New(Config{RingSize: 64, Sink: &bytes.Buffer{}})
	op := r.RequestOp("find")
	avg := testing.AllocsPerRun(200, func() {
		r.CycleBegin()
		r.Span(PhaseMark, time.Microsecond)
		r.Pause(time.Microsecond)
		r.Carve(128)
		r.Retire(100, 28)
		r.Violation(1, "assert-alldead")
		r.Trigger(100, 64)
		r.Assist(time.Microsecond, 2)
		r.Request(op, time.Microsecond)
	})
	// bytes.Buffer growth may allocate occasionally; the emit path itself
	// must not allocate per event.
	if avg > 0.5 {
		t.Errorf("emit path allocates %.2f allocs per cycle, want ~0", avg)
	}
}

// TestRequestSpans exercises the serving emit point: interned op codes,
// per-op histograms, the NDJSON rendering, and the offline Summarize
// agreement with the live counters.
func TestRequestSpans(t *testing.T) {
	var sink bytes.Buffer
	r := New(Config{Sink: &sink})
	find := r.RequestOp("find")
	add := r.RequestOp("add")
	if find < 0 || add < 0 || find == add {
		t.Fatalf("RequestOp codes find=%d add=%d", find, add)
	}
	if again := r.RequestOp("find"); again != find {
		t.Errorf("re-registering find returned %d, want %d", again, find)
	}
	r.Request(find, 2*time.Millisecond)
	r.Request(find, 4*time.Millisecond)
	r.Request(add, time.Millisecond)
	r.Request(-1, time.Millisecond)  // unregistered: ignored
	r.Request(200, time.Millisecond) // out of range: ignored

	m := r.Metrics()
	if m.AllRequest.Count != 3 {
		t.Errorf("AllRequest.Count = %d, want 3", m.AllRequest.Count)
	}
	if len(m.Requests) != 2 || m.Requests[0].Phase != "find" || m.Requests[0].Count != 2 ||
		m.Requests[1].Phase != "add" || m.Requests[1].Count != 1 {
		t.Errorf("Requests = %+v", m.Requests)
	}

	events, err := ReadEvents(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	sum := Summarize(events)
	if sum.AllRequest.Count != 3 {
		t.Errorf("offline request count = %d, want 3", sum.AllRequest.Count)
	}
	if len(sum.Requests) != 2 || sum.Requests[0].Phase != "find" || sum.Requests[0].Count != 2 {
		t.Errorf("offline Requests = %+v", sum.Requests)
	}
	if sum.Requests[0].P99Nanos != uint64(4*time.Millisecond) {
		t.Errorf("offline find p99 = %d, want exact 4ms", sum.Requests[0].P99Nanos)
	}
	if !strings.Contains(sum.Format(), "request") {
		t.Error("Format() missing request table")
	}

	var prom strings.Builder
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `gcassert_request_count{op="find"} 2`) {
		t.Errorf("prometheus output missing request series:\n%s", prom.String())
	}
}

// TestRequestOpTableFull pins the overflow contract: registration past
// MaxRequestOps returns -1 and those requests are silently not recorded.
func TestRequestOpTableFull(t *testing.T) {
	r := New(Config{})
	for i := 0; i < MaxRequestOps; i++ {
		if code := r.RequestOp(strings.Repeat("x", i+1)); code != i {
			t.Fatalf("op %d got code %d", i, code)
		}
	}
	if code := r.RequestOp("overflow"); code != -1 {
		t.Errorf("overflow registration = %d, want -1", code)
	}
	r.Request(-1, time.Millisecond)
	if m := r.Metrics(); m.AllRequest.Count != 0 {
		t.Errorf("overflow request recorded: %d", m.AllRequest.Count)
	}
	var nilRec *Recorder
	if code := nilRec.RequestOp("x"); code != -1 {
		t.Errorf("nil RequestOp = %d, want -1", code)
	}
	nilRec.Request(0, time.Millisecond)
}

// TestNDJSONEscapesNames feeds hostile violation and op names through the
// sink and requires the stream to stay parseable with the names intact.
func TestNDJSONEscapesNames(t *testing.T) {
	var sink bytes.Buffer
	r := New(Config{Sink: &sink})
	hostile := "bad\"name\\with\nnewline\tand\x01ctrl"
	r.Violation(7, hostile)
	op := r.RequestOp(hostile)
	r.Request(op, time.Millisecond)

	events, err := ReadEvents(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("stream unparseable with hostile names: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("decoded %d events, want 2", len(events))
	}
	if events[0].Kind != hostile {
		t.Errorf("violation name %q round-tripped as %q", hostile, events[0].Kind)
	}
	if events[1].Op != hostile {
		t.Errorf("op name %q round-tripped as %q", hostile, events[1].Op)
	}
}

// TestSummarizeSurfacesOpenPhases requires a stream that ends mid-phase to
// report the dangling begin instead of silently dropping it.
func TestSummarizeSurfacesOpenPhases(t *testing.T) {
	stream := `{"seq":1,"ns":10,"ev":"cycle_begin","cycle":1}` + "\n" +
		`{"seq":2,"ns":20,"ev":"phase_begin","phase":"mark","cycle":1}` + "\n" +
		`{"seq":3,"ns":30,"ev":"phase_end","phase":"mark","cycle":1,"dur_ns":10}` + "\n" +
		`{"seq":4,"ns":40,"ev":"phase_begin","phase":"sweep","cycle":1}` + "\n"
	events, err := ReadEvents(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(events)
	if sum.OpenPhases["sweep"] != 1 {
		t.Errorf("OpenPhases = %v, want sweep=1", sum.OpenPhases)
	}
	if _, open := sum.OpenPhases["mark"]; open {
		t.Errorf("balanced phase mark reported open: %v", sum.OpenPhases)
	}
	if !strings.Contains(sum.Format(), "open phases") {
		t.Error("Format() missing open-phases warning")
	}
	// A balanced stream reports nothing.
	balanced := Summarize(events[:3])
	if len(balanced.OpenPhases) != 0 {
		t.Errorf("balanced stream OpenPhases = %v", balanced.OpenPhases)
	}
	if strings.Contains(balanced.Format(), "open phases") {
		t.Error("balanced Format() carries open-phases warning")
	}
}

// TestNDJSONWireFormat pins the line of every event kind, byte for byte
// with "ns" masked, to the lines the encoder wrote at c7fa10c. The
// violation and op names need escaping. cmd/gcmon, the serving sweep and
// bench/traced.go all parse this format.
func TestNDJSONWireFormat(t *testing.T) {
	var sink bytes.Buffer
	r := New(Config{Sink: &sink})
	op, unnamed := r.RequestOp("fi\"nd\t\x01"), r.RequestOp("")
	ns := regexp.MustCompile(`"ns":\d+`)
	for _, tc := range []struct {
		kind string
		emit func()
		want string
	}{
		{"cycle_begin", r.CycleBegin,
			`{"seq":1,"ns":0,"ev":"cycle_begin","cycle":1}`},
		{"phase_begin, phase_end", func() { r.Span(PhaseOwnership, 1234) },
			`{"seq":2,"ns":0,"ev":"phase_begin","phase":"ownership","cycle":1}` + "\n" +
				`{"seq":3,"ns":0,"ev":"phase_end","phase":"ownership","cycle":1,"dur_ns":1234}`},
		{"pause", func() { r.Pause(90 * time.Microsecond) },
			`{"seq":4,"ns":0,"ev":"pause","cycle":1,"dur_ns":90000}`},
		{"carve", func() { r.Carve(1024) },
			`{"seq":5,"ns":0,"ev":"carve","cycle":1,"words":1024}`},
		{"retire", func() { r.Retire(960, 64) },
			`{"seq":6,"ns":0,"ev":"retire","cycle":1,"words":960,"tail":64}`},
		{"violation", func() { r.Violation(3, "assert-\"owned\\by\"\n") },
			`{"seq":7,"ns":0,"ev":"violation","cycle":1,"kind":"assert-\"owned\\by\"\n"}`},
		{"unnamed violation", func() { r.Violation(4, "") },
			`{"seq":8,"ns":0,"ev":"violation","cycle":1,"kind":"unknown"}`},
		{"trigger", func() { r.Trigger(5000, 4096) },
			`{"seq":9,"ns":0,"ev":"trigger","cycle":1,"used":5000,"trigger":4096}`},
		{"assist", func() { r.Assist(3*time.Microsecond, 2) },
			`{"seq":10,"ns":0,"ev":"assist","cycle":1,"dur_ns":3000,"slices":2}`},
		{"request", func() { r.Request(op, 41500*time.Nanosecond) },
			`{"seq":11,"ns":0,"ev":"request","cycle":1,"op":"fi\"nd\t\u0001","dur_ns":41500}`},
		{"request of zero duration", func() { r.Request(op, 0) },
			`{"seq":12,"ns":0,"ev":"request","cycle":1,"op":"fi\"nd\t\u0001","dur_ns":0}`},
		{"unnamed request op", func() { r.Request(unnamed, time.Microsecond) },
			`{"seq":13,"ns":0,"ev":"request","cycle":1,"op":"unknown","dur_ns":1000}`},
	} {
		from := sink.Len()
		tc.emit()
		if got := ns.ReplaceAllString(string(sink.Bytes()[from:]), `"ns":0`); got != tc.want+"\n" {
			t.Errorf("%s:\n got %s\nwant %s", tc.kind, got, tc.want)
		}
	}
}
