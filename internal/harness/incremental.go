package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// Incremental pause report (gcbench -fig pause): the scaling graph is
// collected repeatedly at each mark budget, every pause is timed from the
// mutator's side, and the per-pause distribution is reported. Budget 0 is
// the stop-the-world baseline — its single pause per collection is the
// number the bounded slices are meant to shrink. The published figures stay
// stop-the-world; this report is the observability surface for the
// incremental mode.

// TraceScalingConfig shapes the synthetic heap.
type TraceScalingConfig struct {
	HeapWords int
	Nodes     int
	Roots     int
	Seed      int64
}

// DefaultTraceScaling is sized so a full collection takes long enough to
// time stably but the whole report still finishes in seconds.
var DefaultTraceScaling = TraceScalingConfig{
	HeapWords: 1 << 21,
	Nodes:     100_000,
	Roots:     64,
	Seed:      1,
}

// BuildScalingGraph fills rt with a pseudo-random graph: all nodes are held
// by a rooted spine array (breadth for the root scan) and additionally
// wired into random ternary tangles (depth and sharing for the mark loop).
// It returns the spine array and the node class so callers can mutate the
// graph mid-cycle.
func BuildScalingGraph(rt *core.Runtime, cfg TraceScalingConfig) (core.Ref, *core.Class) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	node := rt.DefineClass("SNode",
		core.RefField("l"), core.RefField("r"), core.RefField("x"),
		core.DataField("d"))
	lOff := node.MustFieldIndex("l")
	rOff := node.MustFieldIndex("r")
	xOff := node.MustFieldIndex("x")

	th := rt.MainThread()
	spine := rt.AddGlobal("spine")
	arr := th.NewRefArray(cfg.Nodes)
	spine.Set(arr)
	refs := make([]core.Ref, cfg.Nodes)
	for i := range refs {
		refs[i] = th.New(node)
		rt.ArrSetRef(arr, i, refs[i])
	}
	for i, r := range refs {
		rt.SetRef(r, lOff, refs[rng.Intn(cfg.Nodes)])
		rt.SetRef(r, rOff, refs[rng.Intn(cfg.Nodes)])
		if i%3 == 0 {
			rt.SetRef(r, xOff, refs[rng.Intn(cfg.Nodes)])
		}
	}
	// A few extra globals rooted mid-graph.
	for g := 0; g < cfg.Roots; g++ {
		rt.AddGlobal(fmt.Sprintf("r%d", g)).Set(refs[rng.Intn(cfg.Nodes)])
	}
	return arr, node
}

// PauseReportConfig shapes one pause measurement.
type PauseReportConfig struct {
	Graph TraceScalingConfig
	// Budgets lists the mark budgets to measure; 0 means stop-the-world.
	Budgets []int
	// Collections is the number of full cycles timed per budget.
	Collections int
	// WritesPerSlice mutator writes run between mark slices so the
	// snapshot write barrier sees traffic mid-cycle.
	WritesPerSlice int
}

// DefaultPauseReport keeps the whole report under a few seconds.
var DefaultPauseReport = PauseReportConfig{
	Graph:          DefaultTraceScaling,
	Budgets:        []int{0, 50_000, 10_000, 2_000},
	Collections:    20,
	WritesPerSlice: 8,
}

// PauseRow is the pause distribution at one budget.
type PauseRow struct {
	Budget int
	// Pauses is the number of pauses observed (stop-the-world: one per
	// collection; incremental: start + slices + finish per collection).
	Pauses int
	// SlicesPerGC is the mean number of bounded mark slices per cycle.
	SlicesPerGC float64
	// BarrierScansPerGC is the mean number of snapshot-barrier object
	// scans per cycle (0 for stop-the-world).
	BarrierScansPerGC float64
	// P50, P95, P99, Max summarize the per-pause durations.
	P50, P95, P99, Max time.Duration
}

// percentileDuration returns the p-quantile (0..1) of sorted durations by
// nearest-rank.
func percentileDuration(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// RunPauseReport measures the pause distribution at each budget. Every
// runtime entry that stops the mutator — GC for budget 0; StartGC, each
// GCStep, and FinishGC for incremental budgets — is timed as one pause.
func RunPauseReport(cfg PauseReportConfig, progress func(string)) []PauseRow {
	rows := make([]PauseRow, 0, len(cfg.Budgets))
	for _, budget := range cfg.Budgets {
		if progress != nil {
			progress(fmt.Sprintf("pause report, budget %d", budget))
		}
		rt := core.New(core.Config{
			HeapWords:         cfg.Graph.HeapWords,
			Mode:              core.Infrastructure,
			IncrementalBudget: budget,
		})
		spine, node := BuildScalingGraph(rt, cfg.Graph)
		lOff := node.MustFieldIndex("l")
		n := rt.ArrLen(spine)
		// Prime: the first collection settles the free lists.
		if err := rt.GC(); err != nil {
			panic(err)
		}

		var pauses []time.Duration
		writeIdx := 0
		mutate := func() {
			// Rewire spine entries to each other so the snapshot barrier
			// has first writes to unscanned objects to intercept. Liveness
			// is unchanged: everything stays rooted by the spine.
			for w := 0; w < cfg.WritesPerSlice; w++ {
				src := rt.ArrGetRef(spine, writeIdx%n)
				dst := rt.ArrGetRef(spine, (writeIdx*7+1)%n)
				rt.SetRef(src, lOff, dst)
				writeIdx++
			}
		}
		timed := func(f func() error) {
			t0 := time.Now()
			if err := f(); err != nil {
				panic(err)
			}
			pauses = append(pauses, time.Since(t0))
		}
		for c := 0; c < cfg.Collections; c++ {
			if budget == 0 {
				timed(rt.GC)
				continue
			}
			timed(rt.StartGC)
			for rt.GCActive() {
				mutate()
				done := false
				timed(func() error {
					var err error
					done, err = rt.GCStep()
					return err
				})
				if done {
					break
				}
			}
			timed(rt.FinishGC)
		}

		sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
		row := PauseRow{
			Budget: budget,
			Pauses: len(pauses),
			P50:    percentileDuration(pauses, 0.50),
			P95:    percentileDuration(pauses, 0.95),
			P99:    percentileDuration(pauses, 0.99),
			Max:    percentileDuration(pauses, 1.00),
		}
		gcs := rt.Stats().GC
		if gcs.IncrementalCycles > 0 {
			row.SlicesPerGC = float64(gcs.MarkSlices) / float64(gcs.IncrementalCycles)
			row.BarrierScansPerGC = float64(gcs.BarrierScans) / float64(gcs.IncrementalCycles)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatPauseReport renders the pause rows as a table. Max shrink is
// against the first row (conventionally budget 0, the stop-the-world
// baseline).
func FormatPauseReport(rows []PauseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Incremental pause distribution (budget 0 = stop-the-world baseline; nproc %d, GOMAXPROCS %d)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %10s %10s %8s %11s %12s\n",
		"budget", "pauses", "p50-ms", "p95-ms", "p99-ms", "max-ms", "shrink", "slices/gc", "barriers/gc")
	var base float64
	for i, r := range rows {
		maxMS := float64(r.Max) / float64(time.Millisecond)
		if i == 0 {
			base = maxMS
		}
		shrink := "-"
		if i > 0 && maxMS > 0 {
			shrink = fmt.Sprintf("%.1fx", base/maxMS)
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		fmt.Fprintf(&b, "%-10d %8d %10.3f %10.3f %10.3f %10.3f %8s %11.1f %12.1f\n",
			r.Budget, r.Pauses, ms(r.P50), ms(r.P95), ms(r.P99), maxMS, shrink,
			r.SlicesPerGC, r.BarrierScansPerGC)
	}
	return b.String()
}
