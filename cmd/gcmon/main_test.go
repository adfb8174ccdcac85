package main

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func TestValidateAccepts(t *testing.T) {
	cases := []options{
		{interval: time.Second, args: []string{"ev.ndjson"}},
		{follow: true, interval: 100 * time.Millisecond, args: []string{"ev.ndjson"}},
	}
	for i, o := range cases {
		if err := validate(o); err != nil {
			t.Errorf("case %d: validate(%+v) = %v, want nil", i, o, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		o    options
		want string
	}{
		{options{interval: time.Second}, "usage:"},
		{options{interval: time.Second, args: []string{"a", "b"}}, "usage:"},
		{options{follow: true, interval: 0, args: []string{"ev"}}, "-interval"},
		{options{follow: true, interval: -time.Second, args: []string{"ev"}}, "-interval"},
	}
	for i, c := range cases {
		err := validate(c.o)
		if err == nil {
			t.Errorf("case %d: validate(%+v) = nil, want error containing %q", i, c.o, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: validate(%+v) = %q, want it to contain %q", i, c.o, err, c.want)
		}
	}
}

// TestSummaryReproducesPhaseCounts is the acceptance check: the summary
// gcmon derives from the NDJSON file reports exactly the phase counts,
// cycle count, and violation tallies the live recorder counted.
func TestSummaryReproducesPhaseCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{
		HeapWords: 1 << 12,
		Mode:      core.Infrastructure,
		Telemetry: &telemetry.Config{Sink: f},
	})
	node := rt.DefineClass("Node")
	th := rt.MainThread()
	g := rt.AddGlobal("leak")
	dead := th.New(node)
	if err := rt.AssertDead(dead); err != nil {
		t.Fatal(err)
	}
	g.Set(dead)
	for i := 0; i < 4; i++ {
		if err := rt.GC(); err != nil {
			t.Fatal(err)
		}
	}
	m := rt.Metrics()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadEvents(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	sum := telemetry.Summarize(events)

	if sum.Cycles != m.Cycles {
		t.Errorf("gcmon cycles %d != recorder cycles %d", sum.Cycles, m.Cycles)
	}
	if sum.Events != m.Events {
		t.Errorf("gcmon events %d != recorder events %d", sum.Events, m.Events)
	}
	if sum.Pause.Count != m.Pause.Count {
		t.Errorf("gcmon pauses %d != recorder pauses %d", sum.Pause.Count, m.Pause.Count)
	}
	byName := map[string]uint64{}
	for _, p := range sum.Phases {
		byName[p.Phase] = p.Count
	}
	for _, p := range m.Phases {
		if p.Count == 0 {
			continue
		}
		if byName[p.Phase] != p.Count {
			t.Errorf("gcmon phase %s count %d != recorder %d", p.Phase, byName[p.Phase], p.Count)
		}
	}
	if !maps.Equal(sum.Violations, m.Violations) {
		t.Errorf("gcmon violations %v != recorder %v", sum.Violations, m.Violations)
	}

	// The one-shot path prints the same table Summarize formats.
	var out strings.Builder
	if err := summarizeOnce(&out, path); err != nil {
		t.Fatal(err)
	}
	if out.String() != sum.Format() {
		t.Error("summarizeOnce output differs from Summarize().Format()")
	}
}

// TestTailStateIncrementalConsume feeds a stream in arbitrary chunk
// boundaries — including mid-line splits — and checks the tail decodes
// exactly the complete lines.
func TestTailStateIncrementalConsume(t *testing.T) {
	lines := `{"seq":1,"ns":10,"ev":"cycle_begin","cycle":1}` + "\n" +
		`{"seq":2,"ns":20,"ev":"phase_end","phase":"mark","cycle":1,"dur_ns":5}` + "\n" +
		`{"seq":3,"ns":30,"ev":"pause","cycle":1,"dur_ns":7}` + "\n"
	for _, chunk := range []int{1, 3, 7, len(lines)} {
		var st tailState
		total := 0
		for off := 0; off < len(lines); off += chunk {
			end := off + chunk
			if end > len(lines) {
				end = len(lines)
			}
			total += st.consume([]byte(lines[off:end]))
		}
		if st.skipped != 0 {
			t.Errorf("chunk %d: %d lines skipped, want 0", chunk, st.skipped)
		}
		if total != 3 || len(st.events) != 3 {
			t.Errorf("chunk %d: decoded %d events (added %d), want 3", chunk, len(st.events), total)
		}
		if len(st.pending) != 0 {
			t.Errorf("chunk %d: %d bytes stuck in pending", chunk, len(st.pending))
		}
		sum := telemetry.Summarize(st.events)
		if sum.Cycles != 1 || sum.Pause.Count != 1 {
			t.Errorf("chunk %d: bad summary %+v", chunk, sum)
		}
	}
}

// TestConsumeResyncsAfterMalformedLine feeds a torn line between valid
// ones: the tail must skip it, count it, and keep decoding — one bad write
// from a dying producer must not kill follow mode.
func TestConsumeResyncsAfterMalformedLine(t *testing.T) {
	var st tailState
	stream := `{"seq":1,"ns":10,"ev":"cycle_begin","cycle":1}` + "\n" +
		`{"seq":2,"ns":20,"ev":"pause","cycle":1,"dur` + "\n" + // torn mid-key
		`not json at all` + "\n" +
		`{"seq":3,"ns":30,"ev":"pause","cycle":1,"dur_ns":7}` + "\n"
	added := st.consume([]byte(stream))
	if added != 2 {
		t.Errorf("consume added %d events, want 2", added)
	}
	if st.skipped != 2 {
		t.Errorf("skipped = %d, want 2", st.skipped)
	}
	sum := telemetry.Summarize(st.events)
	if sum.Cycles != 1 || sum.Pause.Count != 1 {
		t.Errorf("summary after resync: %+v", sum)
	}
	if note := skippedNote(st.skipped); !strings.Contains(note, "2 malformed") {
		t.Errorf("skippedNote = %q", note)
	}
	if skippedNote(0) != "" {
		t.Errorf("skippedNote(0) = %q, want empty", skippedNote(0))
	}
}

// writeFile replaces path's contents (creating it if needed).
func writeFile(t *testing.T, path, contents string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendFile appends to path.
func appendFile(t *testing.T, path, contents string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(contents); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

const (
	evCycle  = `{"seq":1,"ns":10,"ev":"cycle_begin","cycle":1}` + "\n"
	evPause  = `{"seq":2,"ns":20,"ev":"pause","cycle":1,"dur_ns":7}` + "\n"
	evPause2 = `{"seq":3,"ns":30,"ev":"pause","cycle":1,"dur_ns":9}` + "\n"
)

// TestPollFollowsGrowth drives poll over a file the test grows, split
// mid-line across polls: events appear exactly once, and the partial line
// is carried until completed.
func TestPollFollowsGrowth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	writeFile(t, path, evCycle)
	var st tailState
	added, reset, err := st.poll(path)
	if err != nil || reset || added != 1 {
		t.Fatalf("poll 1: added=%d reset=%v err=%v, want 1,false,nil", added, reset, err)
	}
	// Append a line split across two polls.
	half := len(evPause) / 2
	appendFile(t, path, evPause[:half])
	added, _, err = st.poll(path)
	if err != nil || added != 0 {
		t.Fatalf("poll 2 (partial line): added=%d err=%v, want 0,nil", added, err)
	}
	if len(st.pending) == 0 {
		t.Error("partial line not held in pending")
	}
	appendFile(t, path, evPause[half:])
	added, _, err = st.poll(path)
	if err != nil || added != 1 {
		t.Fatalf("poll 3 (line completed): added=%d err=%v, want 1,nil", added, err)
	}
	if len(st.events) != 2 || st.skipped != 0 {
		t.Errorf("events=%d skipped=%d, want 2,0", len(st.events), st.skipped)
	}
}

// TestPollResetsOnTruncation pins the restart contract: a file shrinking
// below the consumed offset resets the tail and re-reads from the start.
func TestPollResetsOnTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	writeFile(t, path, evCycle+evPause)
	var st tailState
	if added, _, err := st.poll(path); err != nil || added != 2 {
		t.Fatalf("initial poll: added=%d err=%v", added, err)
	}
	// Producer restarted: smaller file, fresh stream.
	writeFile(t, path, evCycle)
	added, reset, err := st.poll(path)
	if err != nil || !reset || added != 1 {
		t.Fatalf("post-truncation poll: added=%d reset=%v err=%v, want 1,true,nil", added, reset, err)
	}
	if len(st.events) != 1 {
		t.Errorf("events after reset = %d, want 1", len(st.events))
	}
}

// TestPollRetriesWhileRotated covers the log-rotation window: the file is
// gone for a poll (mid-swap), which must surface as a retryable error that
// leaves the tail intact, and the new (smaller) file must then be adopted
// as a reset — not a fatal exit, which is what shipped before.
func TestPollRetriesWhileRotated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	writeFile(t, path, evCycle+evPause+evPause2)
	var st tailState
	if added, _, err := st.poll(path); err != nil || added != 3 {
		t.Fatalf("initial poll: added=%d err=%v", added, err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	added, reset, err := st.poll(path)
	if err == nil {
		t.Fatal("poll with file missing returned nil error")
	}
	if reset || added != 0 {
		t.Fatalf("missing-file poll mutated state: added=%d reset=%v", added, reset)
	}
	if len(st.events) != 3 || st.offset == 0 {
		t.Errorf("tail state disturbed by transient failure: events=%d offset=%d", len(st.events), st.offset)
	}
	// Rotation completes: a fresh, smaller file appears.
	writeFile(t, path, evCycle)
	added, reset, err = st.poll(path)
	if err != nil || !reset || added != 1 {
		t.Fatalf("post-rotation poll: added=%d reset=%v err=%v, want 1,true,nil", added, reset, err)
	}
	if len(st.events) != 1 {
		t.Errorf("events after rotation = %d, want 1", len(st.events))
	}
}
