package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition format (version 0.0.4) for a live Summary. The snapshot is taken once and rendered outside the recorder
// lock, so a slow scrape cannot stall the collector.

// promWriter accumulates the first error so every Fprintf needn't be
// checked individually.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// escapeLabel escapes a Prometheus label value.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// phaseSeries emits the five series of one PhaseSummary under a metric
// family prefix, labelled {phase="..."}.
func (p *promWriter) phaseSeries(prefix, label string, s PhaseSummary) {
	p.labelledSeries(prefix, "phase", label, s)
}

// labelledSeries emits the five series of one PhaseSummary under a metric
// family prefix with one label key/value pair (no label when value is "").
func (p *promWriter) labelledSeries(prefix, key, label string, s PhaseSummary) {
	lbl := ""
	if label != "" {
		lbl = fmt.Sprintf(`{%s=%q}`, key, escapeLabel(label))
	}
	p.printf("%s_count%s %d\n", prefix, lbl, s.Count)
	p.printf("%s_nanos_total%s %d\n", prefix, lbl, s.TotalNanos)
	p.printf("%s_max_nanos%s %d\n", prefix, lbl, s.MaxNanos)
	p.printf("%s_p50_nanos%s %d\n", prefix, lbl, s.P50Nanos)
	p.printf("%s_p95_nanos%s %d\n", prefix, lbl, s.P95Nanos)
	p.printf("%s_p99_nanos%s %d\n", prefix, lbl, s.P99Nanos)
}

// WritePrometheus renders the summary in Prometheus text format. Metric
// names are prefixed gcassert_.
func (m Summary) WritePrometheus(w io.Writer) error {
	p := &promWriter{w: w}

	p.printf("# HELP gcassert_telemetry_events_total Telemetry events emitted.\n")
	p.printf("# TYPE gcassert_telemetry_events_total counter\n")
	p.printf("gcassert_telemetry_events_total %d\n", m.Events)
	p.printf("# HELP gcassert_telemetry_dropped_total Events overwritten in the ring buffer.\n")
	p.printf("# TYPE gcassert_telemetry_dropped_total counter\n")
	p.printf("gcassert_telemetry_dropped_total %d\n", m.Dropped)
	p.printf("# HELP gcassert_gc_cycles_total Collections begun.\n")
	p.printf("# TYPE gcassert_gc_cycles_total counter\n")
	p.printf("gcassert_gc_cycles_total %d\n", m.Cycles)

	if len(m.Phases) > 0 {
		p.printf("# HELP gcassert_phase_count Completed phase executions by phase.\n")
		p.printf("# TYPE gcassert_phase_count counter\n")
		for _, ph := range m.Phases {
			p.phaseSeries("gcassert_phase", ph.Phase, ph)
		}
	}

	p.printf("# HELP gcassert_pause_count Stop-the-world pauses.\n")
	p.printf("# TYPE gcassert_pause_count counter\n")
	p.phaseSeries("gcassert_pause", "", m.Pause)

	p.printf("# HELP gcassert_buffer_carves_total Allocation buffers carved.\n")
	p.printf("# TYPE gcassert_buffer_carves_total counter\n")
	p.printf("gcassert_buffer_carves_total %d\n", m.Carves)
	p.printf("gcassert_buffer_carve_words_total %d\n", m.CarveWords)
	p.printf("gcassert_buffer_retires_total %d\n", m.Retires)
	p.printf("gcassert_buffer_used_words_total %d\n", m.UsedWords)
	p.printf("gcassert_buffer_tail_words_total %d\n", m.TailWords)

	p.printf("# HELP gcassert_gc_triggers_total Concurrent-pacer cycle triggers.\n")
	p.printf("# TYPE gcassert_gc_triggers_total counter\n")
	p.printf("gcassert_gc_triggers_total %d\n", m.Triggers)
	p.printf("gcassert_gc_assists_total %d\n", m.Assists)
	p.printf("gcassert_gc_assist_slices_total %d\n", m.AssistSlices)

	if m.AllRequest.Count > 0 {
		p.printf("# HELP gcassert_request_count Served requests by op.\n")
		p.printf("# TYPE gcassert_request_count counter\n")
		for _, rq := range m.Requests {
			p.labelledSeries("gcassert_request", "op", rq.Phase, rq)
		}
		p.printf("gcassert_requests_total %d\n", m.AllRequest.Count)
	}

	p.printf("# HELP gcassert_violations_total Assertion violations delivered.\n")
	p.printf("# TYPE gcassert_violations_total counter\n")
	p.printf("gcassert_violations_total %d\n", m.violationTotal())
	for _, k := range sortedKeys(m.Violations) {
		p.printf("gcassert_violations_by_kind_total{kind=%q} %d\n", escapeLabel(k), m.Violations[k])
	}

	p.printf("# HELP gcassert_sidetab_chunk_bytes Bytes the assertion engine holds beside the heap.\n")
	p.printf("# TYPE gcassert_sidetab_chunk_bytes gauge\n")
	p.printf("gcassert_sidetab_chunk_bytes %d\n", m.SideTabChunkBytes)

	p.printf("# HELP gcassert_sink_write_errors_total Event stream writes that failed.\n")
	p.printf("# TYPE gcassert_sink_write_errors_total counter\n")
	p.printf("gcassert_sink_write_errors_total %d\n", m.SinkErrors)
	return p.err
}
