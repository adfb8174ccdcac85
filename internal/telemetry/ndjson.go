package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// NDJSON encoding of the event stream. One object per line, hand-appended
// with strconv so the emit path allocates nothing (the scratch buffer is
// reused under the recorder lock). The schema is stable: cmd/gcmon,
// ReadEvents and the differential tests all parse it.
//
//	{"seq":1,"ns":12345,"ev":"cycle_begin","cycle":1}
//	{"seq":2,"ns":12890,"ev":"phase_begin","phase":"mark","cycle":1}
//	{"seq":3,"ns":99999,"ev":"phase_end","phase":"mark","cycle":1,"dur_ns":87109}
//	{"seq":4,"ns":100100,"ev":"pause","cycle":1,"dur_ns":90000}
//	{"seq":5,"ns":200000,"ev":"carve","cycle":1,"words":1024}
//	{"seq":6,"ns":250000,"ev":"retire","cycle":1,"words":960,"tail":64}
//	{"seq":7,"ns":300000,"ev":"violation","cycle":2,"kind":"assert-dead"}
//	{"seq":8,"ns":310000,"ev":"request","cycle":2,"op":"find","dur_ns":41500}

// appendJSONString appends s as a JSON string (quotes included), escaping
// the characters a JSON string cannot carry raw: quote, backslash, and
// control bytes. Names on the hot path (phase and kind constants) contain
// none of these, so the common case is a straight copy; the escaping exists
// so a custom violation or request-op name can never produce an
// unparseable stream.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c == '\n':
			buf = append(buf, `\n`...)
		case c == '\t':
			buf = append(buf, `\t`...)
		case c == '\r':
			buf = append(buf, `\r`...)
		case c < 0x20:
			buf = append(buf, `\u00`...)
			const hex = "0123456789abcdef"
			buf = append(buf, hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// appendEventJSON renders e as one NDJSON line into buf. Caller holds r.mu.
func (r *Recorder) appendEventJSON(buf []byte, e *Event) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = append(buf, `,"ns":`...)
	buf = strconv.AppendInt(buf, e.AtNanos, 10)
	buf = append(buf, `,"ev":"`...)
	buf = append(buf, e.Kind.String()...)
	buf = append(buf, '"')
	if e.Kind == KindPhaseBegin || e.Kind == KindPhaseEnd {
		buf = append(buf, `,"phase":`...)
		buf = appendJSONString(buf, e.Phase.String())
	}
	buf = append(buf, `,"cycle":`...)
	buf = strconv.AppendUint(buf, e.Cycle, 10)
	switch e.Kind {
	case KindPhaseEnd, KindPause:
		buf = append(buf, `,"dur_ns":`...)
		buf = strconv.AppendUint(buf, e.Value, 10)
	case KindCarve:
		buf = append(buf, `,"words":`...)
		buf = strconv.AppendUint(buf, e.Value, 10)
	case KindRetire:
		buf = append(buf, `,"words":`...)
		buf = strconv.AppendUint(buf, e.Value, 10)
		buf = append(buf, `,"tail":`...)
		buf = strconv.AppendUint(buf, e.Value2, 10)
	case KindViolation:
		buf = append(buf, `,"kind":`...)
		name := r.violationNames[uint8(e.Value)]
		if name == "" {
			name = "unknown"
		}
		buf = appendJSONString(buf, name)
	case KindTrigger:
		buf = append(buf, `,"used":`...)
		buf = strconv.AppendUint(buf, e.Value, 10)
		buf = append(buf, `,"trigger":`...)
		buf = strconv.AppendUint(buf, e.Value2, 10)
	case KindAssist:
		buf = append(buf, `,"dur_ns":`...)
		buf = strconv.AppendUint(buf, e.Value, 10)
		buf = append(buf, `,"slices":`...)
		buf = strconv.AppendUint(buf, e.Value2, 10)
	case KindRequest:
		buf = append(buf, `,"op":`...)
		name := ""
		if int(e.Value2) < len(r.reqNames) {
			name = r.reqNames[e.Value2]
		}
		if name == "" {
			name = "unknown"
		}
		buf = appendJSONString(buf, name)
		buf = append(buf, `,"dur_ns":`...)
		buf = strconv.AppendUint(buf, e.Value, 10)
	}
	return append(buf, "}\n"...)
}

// FileEvent is the decoded form of one NDJSON line.
type FileEvent struct {
	Seq      uint64 `json:"seq"`
	Nanos    int64  `json:"ns"`
	Ev       string `json:"ev"`
	Phase    string `json:"phase,omitempty"`
	Cycle    uint64 `json:"cycle"`
	DurNanos uint64 `json:"dur_ns,omitempty"`
	Words    uint64 `json:"words,omitempty"`
	Tail     uint64 `json:"tail,omitempty"`
	Kind     string `json:"kind,omitempty"`
	Op       string `json:"op,omitempty"`
	Used     uint64 `json:"used,omitempty"`
	Trigger  uint64 `json:"trigger,omitempty"`
	Slices   uint64 `json:"slices,omitempty"`
}

// ReadEvents decodes an NDJSON event stream. Blank lines are skipped; a
// malformed line is an error carrying its line number.
func ReadEvents(r io.Reader) ([]FileEvent, error) {
	var out []FileEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e FileEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("telemetry: event file line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Summary is an offline aggregation of an event stream, as printed by
// cmd/gcmon. Its rows are PhaseSummary values like the live Metrics, but
// their quantiles are exact (computed offline from every recorded
// duration), not the live histograms' factor-of-two bounds.
type Summary struct {
	Events     uint64
	Cycles     uint64
	Phases     []PhaseSummary // phase_end tallies, in first-seen order
	Pause      PhaseSummary
	Carves     uint64
	CarveWords uint64
	Retires    uint64
	UsedWords  uint64
	TailWords  uint64
	Triggers   uint64
	Assists    uint64
	Violations map[string]uint64

	// Requests are request-span tallies per op (first-seen order), plus an
	// aggregate over every op — the serving workload's latency view, with
	// the same exact offline quantiles as the phase rows.
	Requests   []PhaseSummary
	AllRequest PhaseSummary

	// OpenPhases counts phase_begin events with no matching phase_end, per
	// phase name — the signature of a producer that died (or was rotated
	// away) mid-phase. A healthy completed stream has none; Summarize
	// surfaces them instead of silently dropping the dangling begins.
	OpenPhases map[string]uint64
}

// tally accumulates durations for one phase.
type tally struct {
	order int
	durs  []uint64
	total uint64
	max   uint64
}

func (t *tally) observe(ns uint64) {
	t.durs = append(t.durs, ns)
	t.total += ns
	if ns > t.max {
		t.max = ns
	}
}

// exactQuantile returns the q-quantile of durs by nearest-rank (durs is
// sorted in place).
func exactQuantile(durs []uint64, q float64) uint64 {
	if len(durs) == 0 {
		return 0
	}
	rank := int(q*float64(len(durs)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(durs) {
		rank = len(durs)
	}
	return durs[rank-1]
}

func (t *tally) finish(name string) PhaseSummary {
	sort.Slice(t.durs, func(i, j int) bool { return t.durs[i] < t.durs[j] })
	return PhaseSummary{
		Phase:      name,
		Count:      uint64(len(t.durs)),
		TotalNanos: t.total,
		MaxNanos:   t.max,
		P50Nanos:   exactQuantile(t.durs, 0.50),
		P95Nanos:   exactQuantile(t.durs, 0.95),
		P99Nanos:   exactQuantile(t.durs, 0.99),
	}
}

// Summarize aggregates a decoded event stream.
func Summarize(events []FileEvent) Summary {
	s := Summary{Violations: map[string]uint64{}}
	phases := map[string]*tally{}
	requests := map[string]*tally{}
	begins := map[string]int64{} // phase_begin minus phase_end, per phase
	var pause, allReq tally
	for _, e := range events {
		s.Events++
		switch e.Ev {
		case "cycle_begin":
			s.Cycles++
		case "phase_begin":
			begins[e.Phase]++
		case "phase_end":
			begins[e.Phase]--
			t := phases[e.Phase]
			if t == nil {
				t = &tally{order: len(phases)}
				phases[e.Phase] = t
			}
			t.observe(e.DurNanos)
		case "pause":
			pause.observe(e.DurNanos)
		case "carve":
			s.Carves++
			s.CarveWords += e.Words
		case "retire":
			s.Retires++
			s.UsedWords += e.Words
			s.TailWords += e.Tail
		case "trigger":
			s.Triggers++
		case "assist":
			// Assists are mutator stalls but not collector pauses; they get
			// their own phase row so the pause distribution stays comparable
			// across modes.
			s.Assists++
			t := phases["assist"]
			if t == nil {
				t = &tally{order: len(phases)}
				phases["assist"] = t
			}
			t.observe(e.DurNanos)
		case "violation":
			s.Violations[e.Kind]++
		case "request":
			t := requests[e.Op]
			if t == nil {
				t = &tally{order: len(requests)}
				requests[e.Op] = t
			}
			t.observe(e.DurNanos)
			allReq.observe(e.DurNanos)
		}
	}
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return phases[names[i]].order < phases[names[j]].order })
	for _, name := range names {
		s.Phases = append(s.Phases, phases[name].finish(name))
	}
	s.Pause = pause.finish("pause")
	names = names[:0]
	for name := range requests {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return requests[names[i]].order < requests[names[j]].order })
	for _, name := range names {
		s.Requests = append(s.Requests, requests[name].finish(name))
	}
	s.AllRequest = allReq.finish("all")
	for name, n := range begins {
		if n > 0 {
			if s.OpenPhases == nil {
				s.OpenPhases = map[string]uint64{}
			}
			s.OpenPhases[name] = uint64(n)
		}
	}
	return s
}

// fmtNanos renders a nanosecond figure at a human scale.
func fmtNanos(ns uint64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// Format renders the summary as the table cmd/gcmon prints.
func (s Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events: %d   cycles: %d\n", s.Events, s.Cycles)
	row := func(name string, p PhaseSummary) {
		fmt.Fprintf(&b, "%-14s %8d %10s %10s %10s %10s %10s\n",
			name, p.Count, fmtNanos(p.TotalNanos),
			fmtNanos(p.P50Nanos), fmtNanos(p.P95Nanos), fmtNanos(p.P99Nanos), fmtNanos(p.MaxNanos))
	}
	header := func(first string) {
		fmt.Fprintf(&b, "%-14s %8s %10s %10s %10s %10s %10s\n",
			first, "count", "total", "p50", "p95", "p99", "max")
	}
	if len(s.Phases) > 0 || s.Pause.Count > 0 {
		header("phase")
		for _, p := range s.Phases {
			row(p.Phase, p)
		}
		if s.Pause.Count > 0 {
			row("pause", s.Pause)
		}
	}
	if len(s.Requests) > 0 {
		header("request")
		for _, p := range s.Requests {
			row(p.Phase, p)
		}
		if len(s.Requests) > 1 {
			row("all", s.AllRequest)
		}
	}
	if s.Carves > 0 || s.Retires > 0 {
		fmt.Fprintf(&b, "buffers: %d carved (%d words), %d retired (%d used + %d tail words)\n",
			s.Carves, s.CarveWords, s.Retires, s.UsedWords, s.TailWords)
	}
	if s.Triggers > 0 || s.Assists > 0 {
		fmt.Fprintf(&b, "pacer: %d cycle triggers, %d mutator assists\n", s.Triggers, s.Assists)
	}
	if len(s.Violations) > 0 {
		kinds := make([]string, 0, len(s.Violations))
		for k := range s.Violations {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		b.WriteString("violations:")
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, s.Violations[k])
		}
		b.WriteByte('\n')
	}
	if len(s.OpenPhases) > 0 {
		names := make([]string, 0, len(s.OpenPhases))
		for name := range s.OpenPhases {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("open phases (begin without end — producer died mid-phase?):")
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%d", name, s.OpenPhases[name])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
