package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Sweep-mode report (gcbench -fig sweep): one workload is run to a fixed
// iteration count under each sweep mode — eager serial (the published
// baseline), parallel with each requested worker count, and lazy — with
// every collection pause recorded. The published figures use the eager
// sweep; this report is the observability surface for the sweep modes: it
// shows the parallel mode shrinking the whole pause and the lazy mode moving
// reclamation out of the pause entirely (paid back as DeferredSweepTime
// during mutator allocation).

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
	// Workers lists the parallel worker counts to measure.
	Workers []int
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
	Workers:    []int{2, 4},
	Collector:  core.MarkSweep,
}

// SweepRow is the pause distribution of one sweep mode.
type SweepRow struct {
	// Mode is "eager", "parallel-N" or "lazy".
	Mode string
	// Collections and Pauses observed (every recorded collection pause).
	Collections uint64
	Pauses      int
	// P50, P95, P99, Max summarize the post-mark sweep-phase pauses — the
	// portion of each collection pause the sweep modes exist to shrink.
	// For the lazy mode this includes any leftover deferred reclamation
	// charged to the pause, so the comparison never flatters it.
	P50, P95, P99, Max time.Duration
	// FullP99 and FullMax summarize the whole collection pauses.
	FullP99, FullMax time.Duration
	// GCTime is the total collector time; Elapsed the wall time of the
	// whole run.
	GCTime  time.Duration
	Elapsed time.Duration
	// Deferred is the reclamation time the lazy mode paid outside the
	// pauses; DemandSegments counts the ranges the allocator swept on
	// demand (the rest were forced by the next collection).
	Deferred       time.Duration
	DemandSegments uint64
}

// runSweepMode runs the configured workload once under one sweep mode and
// collects its pause distribution.
func runSweepMode(cfg SweepReportConfig, mode string, workers int, lazy bool) SweepRow {
	f := workloads.ByName(cfg.Workload)
	if f == nil {
		panic(fmt.Sprintf("harness: unknown workload %q", cfg.Workload))
	}
	w := f()
	heapWords := w.HeapWords()
	if cfg.HeapWords > 0 {
		heapWords = cfg.HeapWords
	}
	rt := core.New(core.Config{
		HeapWords:    heapWords,
		Mode:         core.Base,
		Collector:    cfg.Collector,
		SweepWorkers: workers,
		LazySweep:    lazy,
		RecordPauses: true,
	})
	th := rt.MainThread()
	w.Setup(rt, th)
	start := time.Now()
	for i := 0; i < cfg.Iterations; i++ {
		w.Iterate(rt, th)
	}
	elapsed := time.Since(start)

	st := rt.Stats()
	sweeps := append([]time.Duration(nil), st.GC.SweepPauseLog...)
	sort.Slice(sweeps, func(i, j int) bool { return sweeps[i] < sweeps[j] })
	full := append([]time.Duration(nil), st.GC.PauseLog...)
	sort.Slice(full, func(i, j int) bool { return full[i] < full[j] })
	return SweepRow{
		Mode:           mode,
		Collections:    st.GC.Collections,
		Pauses:         len(sweeps),
		P50:            percentileDuration(sweeps, 0.50),
		P95:            percentileDuration(sweeps, 0.95),
		P99:            percentileDuration(sweeps, 0.99),
		Max:            percentileDuration(sweeps, 1.00),
		FullP99:        percentileDuration(full, 0.99),
		FullMax:        percentileDuration(full, 1.00),
		GCTime:         st.GC.GCTime,
		Elapsed:        elapsed,
		Deferred:       st.Sweep.DeferredSweepTime,
		DemandSegments: st.Sweep.DemandSegments,
	}
}

// RunSweepReport measures the workload under every sweep mode.
func RunSweepReport(cfg SweepReportConfig, progress func(string)) []SweepRow {
	type mode struct {
		name    string
		workers int
		lazy    bool
	}
	modes := []mode{{"eager", 0, false}}
	for _, n := range cfg.Workers {
		if n >= 2 {
			modes = append(modes, mode{fmt.Sprintf("parallel-%d", n), n, false})
		}
	}
	modes = append(modes, mode{"lazy", 0, true})

	rows := make([]SweepRow, 0, len(modes))
	for _, m := range modes {
		if progress != nil {
			progress(fmt.Sprintf("sweep report, %s", m.name))
		}
		// One untimed priming run per mode, for the same reason Measure
		// primes: first-window CPU ramp-up would bias the eager baseline.
		runSweepMode(cfg, m.name, m.workers, m.lazy)
		rows = append(rows, runSweepMode(cfg, m.name, m.workers, m.lazy))
	}
	return rows
}

// FormatSweepReport renders the sweep rows as a table. The shrink column is
// the p99 pause against the first row (conventionally the eager baseline).
func FormatSweepReport(cfg SweepReportConfig, rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep-phase (post-mark) pause distribution (%s, %d iterations, %s collector)\n",
		cfg.Workload, cfg.Iterations, cfg.Collector)
	fmt.Fprintf(&b, "%-12s %5s %9s %9s %9s %9s %8s %9s %9s %11s %7s\n",
		"mode", "gcs", "p50-ms", "p95-ms", "p99-ms", "max-ms",
		"shrink", "full-p99", "defer-ms", "demand-segs", "gc-ms")
	var base float64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for i, r := range rows {
		p99 := ms(r.P99)
		if i == 0 {
			base = p99
		}
		shrink := "-"
		if i > 0 && p99 > 0 {
			shrink = fmt.Sprintf("%.1fx", base/p99)
		}
		fmt.Fprintf(&b, "%-12s %5d %9.3f %9.3f %9.3f %9.3f %8s %9.3f %9.3f %11d %7.1f\n",
			r.Mode, r.Collections, ms(r.P50), ms(r.P95), p99, ms(r.Max),
			shrink, ms(r.FullP99), ms(r.Deferred), r.DemandSegments, ms(r.GCTime))
	}
	fmt.Fprintf(&b, "\nColumns p50..max are the sweep phase of each collection pause; full-p99\nis the whole pause. lazy: defer-ms is reclamation moved out of the pauses\nand paid during mutator allocation; after a stop-the-world trace the pause\nkeeps only O(1) bookkeeping (the trace supplies exact live totals), after an\nincremental one a header-only census. Leftover undemanded ranges charge the next pause.\n")
	return b.String()
}
