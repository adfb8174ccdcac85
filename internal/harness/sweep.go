package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Sweep-mode report (gcbench -fig sweep): one workload is run to a fixed
// iteration count under the eager sweep (the published baseline) and the
// lazy sweep, with a telemetry recorder attached. The published figures use
// the eager sweep; this report is the observability surface for the lazy
// mode: it shows reclamation moving out of the pause (paid back as
// lazy_segment spans during mutator allocation). Every duration column is
// read from the recorder's event stream, the same events /metrics and gcmon
// summarize.

// SweepReportConfig shapes one sweep-mode comparison.
type SweepReportConfig struct {
	// Workload names the benchmark to drive (workloads.ByName).
	Workload string
	// HeapWords overrides the workload's default heap size (0 keeps it).
	// Sweep work scales with heap capacity while mark work scales with
	// live data, so a roomier heap is where the sweep modes matter.
	HeapWords int
	// Iterations is the number of workload iterations per mode.
	Iterations int
	// Collector selects the collector; the pause structure differs (the
	// generational collector sweeps only the nursery on minor collections).
	Collector core.CollectorKind
}

// DefaultSweepReport keeps the whole report under a minute while giving each
// mode enough collections that the p99 column is not a single-sample max.
var DefaultSweepReport = SweepReportConfig{
	Workload:   "pseudojbb",
	HeapWords:  1 << 19,
	Iterations: 800,
	Collector:  core.MarkSweep,
}

// SweepRow is the pause distribution of one sweep mode.
type SweepRow struct {
	// Mode is "eager" or "lazy".
	Mode string
	// Collections observed.
	Collections uint64
	// Sweep tallies the telemetry "sweep" phase: the post-mark sweep pass of
	// each collection pause — the whole reclamation when eager, the
	// census/arm when lazy.
	Sweep telemetry.PhaseTally
	// Segment tallies the "lazy_segment" phase: one deferred range sweep,
	// on allocation demand or forced by the next collection (those are
	// inside that collection's pause, and so inside Pause, too).
	Segment telemetry.PhaseTally
	// Pause tallies the whole collection pauses.
	Pause telemetry.PhaseTally
	// GCTime is the total collector time.
	GCTime time.Duration
	// DemandSegments counts the ranges the allocator swept on demand (the
	// rest of Segment.Count were forced by the next collection).
	DemandSegments uint64
}

// runSweepMode runs the configured workload once under one sweep mode and
// collects its pause distribution.
func runSweepMode(cfg SweepReportConfig, mode string) SweepRow {
	f := workloads.ByName(cfg.Workload)
	if f == nil {
		panic(fmt.Sprintf("harness: unknown workload %q", cfg.Workload))
	}
	w := f()
	heapWords := w.HeapWords()
	if cfg.HeapWords > 0 {
		heapWords = cfg.HeapWords
	}
	var events bytes.Buffer
	rt := core.New(core.Config{
		HeapWords: heapWords,
		Mode:      core.Base,
		Collector: cfg.Collector,
		LazySweep: mode == "lazy",
		Telemetry: &telemetry.Config{Sink: &events},
	})
	th := rt.MainThread()
	w.Setup(rt, th)
	for i := 0; i < cfg.Iterations; i++ {
		w.Iterate(rt, th)
	}

	st := rt.Stats()
	evs, err := telemetry.ReadEvents(&events)
	if err != nil {
		panic(fmt.Sprintf("harness: the recorder's own event stream does not decode: %v", err))
	}
	sum := telemetry.Summarize(evs)
	row := SweepRow{
		Mode:           mode,
		Collections:    st.GC.Collections,
		Pause:          sum.Pause,
		GCTime:         st.GC.GCTime,
		DemandSegments: st.Sweep.DemandSegments,
	}
	for _, p := range sum.Phases {
		switch p.Phase {
		case telemetry.PhaseSweep.String():
			row.Sweep = p
		case telemetry.PhaseLazySegment.String():
			row.Segment = p
		}
	}
	return row
}

// RunSweepReport measures the workload under both sweep modes.
func RunSweepReport(cfg SweepReportConfig, progress func(string)) []SweepRow {
	rows := make([]SweepRow, 0, 2)
	for _, mode := range []string{"eager", "lazy"} {
		if progress != nil {
			progress("sweep report, " + mode)
		}
		// One untimed priming run per mode, for the same reason Measure
		// primes: first-window CPU ramp-up would bias the eager baseline.
		runSweepMode(cfg, mode)
		rows = append(rows, runSweepMode(cfg, mode))
	}
	return rows
}

// FormatSweepReport renders the sweep rows as a table. The shrink column is
// the p99 sweep phase against the first row (the eager baseline).
func FormatSweepReport(cfg SweepReportConfig, rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep-phase (post-mark) pause distribution (%s, %d iterations, %s collector, nproc %d)\n",
		cfg.Workload, cfg.Iterations, cfg.Collector, runtime.NumCPU())
	fmt.Fprintf(&b, "%-6s %5s %9s %9s %9s %9s %8s %9s %9s %9s %11s %7s\n",
		"mode", "gcs", "p50-ms", "p95-ms", "p99-ms", "max-ms",
		"shrink", "full-p99", "defer-ms", "seg-p99", "demand-segs", "gc-ms")
	var base float64
	ms := func(ns uint64) float64 { return float64(ns) / float64(time.Millisecond) }
	for i, r := range rows {
		p99 := ms(r.Sweep.P99Nanos)
		if i == 0 {
			base = p99
		}
		shrink := "-"
		if i > 0 && p99 > 0 {
			shrink = fmt.Sprintf("%.1fx", base/p99)
		}
		fmt.Fprintf(&b, "%-6s %5d %9.3f %9.3f %9.3f %9.3f %8s %9.3f %9.3f %9.3f %11d %7.1f\n",
			r.Mode, r.Collections, ms(r.Sweep.P50Nanos), ms(r.Sweep.P95Nanos), p99, ms(r.Sweep.MaxNanos),
			shrink, ms(r.Pause.P99Nanos), ms(r.Segment.TotalNanos), ms(r.Segment.P99Nanos),
			r.DemandSegments, ms(uint64(r.GCTime)))
	}
	fmt.Fprintf(&b, "\nEvery duration but gc-ms is an exact quantile over the run's telemetry events\n(telemetry.Summarize, as gcmon prints): p50..max are phase \"sweep\", the sweep\npass inside each collection pause; full-p99 is event \"pause\", the whole pause;\ndefer-ms and seg-p99 are phase \"lazy_segment\" (total and per range), the\nreclamation lazy mode moves out of the sweep pass and pays during mutator\nallocation. demand-segs (core Stats().Sweep) counts the ranges the allocator\nswept; the rest were left for the next collection, which sweeps them at its\nstart, inside its pause and so inside full-p99. After a stop-the-world trace the\nlazy sweep pass is O(1) bookkeeping (the trace supplies exact live totals),\nafter an incremental one a header-only census.\n")
	return b.String()
}
