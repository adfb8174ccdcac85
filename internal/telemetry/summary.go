package telemetry

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// PhaseSummary is one row of a Summary: a phase, the pause series, or a
// request op. Count, TotalNanos and MaxNanos are exact. The quantiles take
// one nearest-rank rule (rank): offline they are exact, live they are the
// upper edge of the log2 bucket that holds the exact value, clamped to Max.
type PhaseSummary struct {
	Phase      string `json:"phase"`
	Count      uint64 `json:"count"`
	TotalNanos uint64 `json:"total_ns"`
	MaxNanos   uint64 `json:"max_ns"`
	P50Nanos   uint64 `json:"p50_ns"`
	P95Nanos   uint64 `json:"p95_ns"`
	P99Nanos   uint64 `json:"p99_ns"`
}

// Summary aggregates an event stream: live from a Recorder (Metrics) or
// offline from a decoded NDJSON stream (Summarize), by the same fold.
type Summary struct {
	Events     uint64
	Cycles     uint64
	Phases     []PhaseSummary // phase_end and assist tallies, in first-seen order
	Pause      PhaseSummary
	Carves     uint64
	CarveWords uint64
	Retires    uint64
	UsedWords  uint64
	TailWords  uint64

	// Concurrent-pacer counters: cycle triggers, mutator assists, and the
	// mark slices those assists performed.
	Triggers     uint64
	Assists      uint64
	AssistSlices uint64

	Violations map[string]uint64 // per assertion kind

	// Requests are request-span tallies per op (first-seen order), plus an
	// aggregate over every op — the serving workload's latency view.
	Requests   []PhaseSummary
	AllRequest PhaseSummary

	// OpenPhases counts phase_begin events with no matching phase_end, per
	// phase name. Live, that is a phase still running; in a completed
	// stream it is the signature of a producer that died (or was rotated
	// away) mid-phase, surfaced instead of silently dropped.
	OpenPhases map[string]uint64

	// Facts the stream does not carry, set on a live Summary only: events
	// overwritten in the recorder's ring, failed sink writes, and the bytes
	// the assertion engine holds beside the heap (set by core.Runtime).
	Dropped           uint64
	SinkErrors        uint64
	SideTabChunkBytes uint64
}

// violationTotal is the number of violations of every kind.
func (s *Summary) violationTotal() uint64 {
	var n uint64
	for _, c := range s.Violations {
		n += c
	}
	return n
}

// series is one row under aggregation. A live row keeps only the
// histogram; an exact (offline) row also keeps every duration.
type series struct {
	name string
	hist Histogram
	durs []uint64
}

// summary renders the row, sorting its durations in place.
func (t *series) summary() PhaseSummary {
	quantile := t.hist.Quantile
	if len(t.durs) > 0 {
		sort.Slice(t.durs, func(i, j int) bool { return t.durs[i] < t.durs[j] })
		quantile = func(q float64) uint64 { return t.durs[rank(q, uint64(len(t.durs)))-1] }
	}
	return PhaseSummary{
		Phase:      t.name,
		Count:      t.hist.Count,
		TotalNanos: t.hist.Sum,
		MaxNanos:   t.hist.Max,
		P50Nanos:   quantile(0.50),
		P95Nanos:   quantile(0.95),
		P99Nanos:   quantile(0.99),
	}
}

// rank is the 1-based nearest rank of the q-quantile among n > 0 sorted
// values: q·n rounded to the nearest integer, clamped to [1, n].
func rank(q float64, n uint64) uint64 {
	r := uint64(q*float64(n) + 0.5)
	return max(1, min(r, n))
}

// fold is the one aggregation behind every telemetry view. The Recorder
// feeds it each event as it is emitted; Summarize feeds it each decoded
// line. Adding an event it has seen before allocates nothing.
type fold struct {
	exact    bool // keep every duration for exact quantiles
	s        Summary
	phases   []series
	requests []series
	pause    series
	all      series
	open     map[string]int64 // phase_begin minus phase_end, per phase
}

func newFold(exact bool) fold {
	return fold{
		exact: exact,
		s:     Summary{Violations: map[string]uint64{}},
		pause: series{name: "pause"},
		all:   series{name: "all"},
		open:  map[string]int64{},
	}
}

func (f *fold) observe(t *series, ns uint64) {
	t.hist.Observe(ns)
	if f.exact {
		t.durs = append(t.durs, ns)
	}
}

// row returns the series named name in rows, appending it on first sight.
func row(rows *[]series, name string) *series {
	for i := range *rows {
		if (*rows)[i].name == name {
			return &(*rows)[i]
		}
	}
	*rows = append(*rows, series{name: name})
	return &(*rows)[len(*rows)-1]
}

// add folds one event into the aggregate.
func (f *fold) add(e *FileEvent) {
	s := &f.s
	s.Events++
	switch e.Ev {
	case "cycle_begin":
		s.Cycles++
	case "phase_begin":
		f.open[e.Phase]++
	case "phase_end":
		f.open[e.Phase]--
		f.observe(row(&f.phases, e.Phase), e.DurNanos)
	case "pause":
		f.observe(&f.pause, e.DurNanos)
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
		s.AssistSlices += e.Slices
		f.observe(row(&f.phases, "assist"), e.DurNanos)
	case "violation":
		s.Violations[e.Kind]++
	case "request":
		f.observe(row(&f.requests, e.Op), e.DurNanos)
		f.observe(&f.all, e.DurNanos)
	}
}

// summary renders the aggregate. The result shares nothing with the fold.
func (f *fold) summary() Summary {
	s := f.s
	s.Violations = maps.Clone(f.s.Violations)
	s.Phases = rows(f.phases)
	s.Requests = rows(f.requests)
	s.Pause = f.pause.summary()
	s.AllRequest = f.all.summary()
	for name, n := range f.open {
		if n > 0 {
			if s.OpenPhases == nil {
				s.OpenPhases = map[string]uint64{}
			}
			s.OpenPhases[name] = uint64(n)
		}
	}
	return s
}

func rows(ts []series) []PhaseSummary {
	var out []PhaseSummary
	for i := range ts {
		out = append(out, ts[i].summary())
	}
	return out
}

// Summarize aggregates a decoded event stream, with exact quantiles.
func Summarize(events []FileEvent) Summary {
	f := newFold(true)
	for i := range events {
		f.add(&events[i])
	}
	return f.summary()
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
		b.WriteString("violations:")
		for _, k := range sortedKeys(s.Violations) {
			fmt.Fprintf(&b, " %s=%d", k, s.Violations[k])
		}
		b.WriteByte('\n')
	}
	if len(s.OpenPhases) > 0 {
		b.WriteString("open phases (begin without end — producer died mid-phase?):")
		for _, name := range sortedKeys(s.OpenPhases) {
			fmt.Fprintf(&b, " %s=%d", name, s.OpenPhases[name])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sortedKeys returns m's keys in order, for stable rendering.
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
