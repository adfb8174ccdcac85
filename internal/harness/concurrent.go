package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// Concurrent pacing report (gcbench -fig pause -concurrent): one churn
// workload run under the stop-the-world collector and under the background
// pacer at several trigger/slack settings. Every mutator operation is timed
// from the mutator's side: under stop-the-world the whole collection pause
// lands inside whichever allocation exhausted the heap, while under the
// pacer the same work is spread across background slices and bounded
// assists — so the tail of the per-operation latency distribution is
// exactly the mutator-visible pause the pacer is meant to shrink, and the
// wall-clock total is the throughput it must not give away.

// ConcurrentVariant is one collector configuration to measure.
type ConcurrentVariant struct {
	Name       string
	Concurrent bool
	// Trigger and Slack are core.Config.GCTriggerFraction and
	// GCAssistSlack; zero takes the runtime defaults. Ignored unless
	// Concurrent.
	Trigger, Slack float64
}

// ConcurrentPacingConfig shapes the report.
type ConcurrentPacingConfig struct {
	HeapWords int
	AllocBuf  int
	Ops       int
	Seed      int64
	Variants  []ConcurrentVariant
}

// DefaultConcurrentPacing sizes the churn so the stop-the-world baseline
// collects dozens of times and every pacer variant completes multiple
// background cycles, while the whole report stays under a few seconds.
var DefaultConcurrentPacing = ConcurrentPacingConfig{
	HeapWords: 1 << 19,
	AllocBuf:  256,
	Ops:       300_000,
	Seed:      1,
	Variants: []ConcurrentVariant{
		{Name: "stw"},
		{Name: "conc-default", Concurrent: true},
		{Name: "conc-early", Concurrent: true, Trigger: 0.3, Slack: 0.5},
		{Name: "conc-tight", Concurrent: true, Trigger: 0.5, Slack: 0.25},
	},
}

// ConcurrentRow is the measurement for one variant.
type ConcurrentRow struct {
	Name string
	Wall time.Duration
	// OpsPerMS is mutator throughput: operations per millisecond of wall
	// time.
	OpsPerMS float64
	// P50, P95, P99, Max summarize per-operation latency; the tail is where
	// collection pauses surface.
	P50, P95, P99, Max time.Duration
	// Cycles counts full collections (pacer cycles, or stop-the-world
	// exhaustion collections for the baseline).
	Cycles uint64
	// Assists and ForcedFinishes are pacer counters (0 for the baseline).
	Assists, ForcedFinishes uint64
	// GrowthFrac is MaxCycleGrowthWords/GrowthCapWords (0 for the
	// baseline): how close the worst cycle came to the assist hard cap.
	GrowthFrac float64
}

// RunConcurrentPacing measures every variant on the identical churn script.
func RunConcurrentPacing(cfg ConcurrentPacingConfig, progress func(string)) []ConcurrentRow {
	rows := make([]ConcurrentRow, 0, len(cfg.Variants))
	for _, v := range cfg.Variants {
		if progress != nil {
			progress(fmt.Sprintf("concurrent pacing, %s", v.Name))
		}
		rows = append(rows, runConcurrentVariant(cfg, v))
	}
	return rows
}

func runConcurrentVariant(cfg ConcurrentPacingConfig, v ConcurrentVariant) ConcurrentRow {
	c := core.Config{
		HeapWords:    cfg.HeapWords,
		Mode:         core.Infrastructure,
		AllocBuffers: cfg.AllocBuf,
	}
	if v.Concurrent {
		c.ConcurrentGC = true
		c.GCTriggerFraction = v.Trigger
		c.GCAssistSlack = v.Slack
	}
	rt := core.New(c)
	node := rt.DefineClass("CNode",
		core.RefField("l"), core.RefField("r"), core.DataField("d"))
	lOff := node.MustFieldIndex("l")
	th := rt.MainThread()
	const locals = 8
	fr := th.PushFrame(locals)

	// The same deterministic churn for every variant: mostly allocation,
	// some wiring (which exercises the snapshot barrier mid-cycle), and a
	// periodic drop of the whole local set so the live fraction stays small
	// and every variant's collections actually reclaim. Slots 0..5 hold
	// only CNodes and slots 6..7 only ref arrays, so the wire op can use
	// the field accessor without a per-op kind check.
	const nodeSlots = locals - 2
	rng := newSplitMix(uint64(cfg.Seed))
	lat := make([]time.Duration, 0, cfg.Ops)
	start := time.Now()
	for i := 0; i < cfg.Ops; i++ {
		r := rng.next()
		t0 := time.Now()
		switch {
		case r%8 < 5:
			fr.SetLocal(int(r>>8)%nodeSlots, th.New(node))
		case r%8 < 6:
			src := fr.Local(int(r>>8) % nodeSlots)
			dst := fr.Local(int(r>>16) % locals)
			if src != core.Nil {
				rt.SetRef(src, lOff, dst)
			}
		case r%8 < 7:
			_ = th.NewDataArray(int(r>>8)%24 + 8)
		default:
			fr.SetLocal(nodeSlots+int(r>>8)%2, th.NewRefArray(int(r>>16)%8+1))
		}
		lat = append(lat, time.Since(t0))
		if i%512 == 511 {
			for s := 0; s < locals; s++ {
				fr.SetLocal(s, core.Nil)
			}
		}
	}
	wall := time.Since(start)
	if err := rt.Close(); err != nil {
		panic(err)
	}
	s := rt.Stats()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	row := ConcurrentRow{
		Name:     v.Name,
		Wall:     wall,
		OpsPerMS: float64(cfg.Ops) / (float64(wall) / float64(time.Millisecond)),
		P50:      percentileDuration(lat, 0.50),
		P95:      percentileDuration(lat, 0.95),
		P99:      percentileDuration(lat, 0.99),
		Max:      percentileDuration(lat, 1.00),
	}
	if v.Concurrent {
		row.Cycles = s.Pacer.Cycles
		row.Assists = s.Pacer.Assists
		row.ForcedFinishes = s.Pacer.ForcedFinishes
		if s.Pacer.GrowthCapWords > 0 {
			row.GrowthFrac = float64(s.Pacer.MaxCycleGrowthWords) / float64(s.Pacer.GrowthCapWords)
		}
	} else {
		row.Cycles = s.GC.FullCollections
	}
	return row
}

// splitMix is a tiny deterministic PRNG so the churn script costs a few
// nanoseconds per op instead of a math/rand mutex acquisition inside the
// timed region.
type splitMix struct{ x uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{x: seed*0x9e3779b97f4a7c15 + 1} }

func (s *splitMix) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FormatConcurrentPacing renders the rows. Throughput is normalized to the
// first row (conventionally the stop-the-world baseline).
func FormatConcurrentPacing(rows []ConcurrentRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrent pacing: per-operation latency and throughput (first row = baseline; nproc %d, GOMAXPROCS %d)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%-14s %9s %8s %9s %9s %9s %9s %7s %8s %7s %7s\n",
		"config", "ops/ms", "rel", "p50-us", "p95-us", "p99-us", "max-ms",
		"cycles", "assists", "forced", "growth")
	var base float64
	for i, r := range rows {
		if i == 0 {
			base = r.OpsPerMS
		}
		rel := "-"
		if i > 0 && base > 0 {
			rel = fmt.Sprintf("%.2fx", r.OpsPerMS/base)
		}
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		fmt.Fprintf(&b, "%-14s %9.0f %8s %9.2f %9.2f %9.2f %9.3f %7d %8d %7d %6.0f%%\n",
			r.Name, r.OpsPerMS, rel, us(r.P50), us(r.P95), us(r.P99),
			float64(r.Max)/float64(time.Millisecond),
			r.Cycles, r.Assists, r.ForcedFinishes, r.GrowthFrac*100)
	}
	return b.String()
}
