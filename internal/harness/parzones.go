package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// Parallel-rotation throughput report (gcbench -fig zones -zonegcworkers N,
// make parzonebench): the same per-zone allocation churn run by one
// mutator thread per zone while a driver performs whole-heap rotations on
// a fixed cadence with 1, 2, ... N zones collected simultaneously
// (GCZonesConcurrent; width 1 is GCZones). The cadence keeps reclamation
// volume per heap word identical across arms (back-to-back rotation would
// instead measure driver/mutator starvation). The figure is aggregate GC throughput:
// marked words per second of driver wall time spent inside rotations,
// which the concurrent claim protocol is meant to scale — while one
// zone's mark/sweep runs, other workers mark and sweep theirs, and
// mutators keep allocating in zones not currently under collection.
// Mutator throughput rides along as the flat-line check: rotation
// concurrency must not tax the allocation fast path.
//
// The mutators publish a slice of their allocations into a rooted
// cross-zone hub array, so every rotation resolves live remembered-set
// entries and the zone traces mark real cross-zone structure, not just
// zone-local windows.
//
// Caveat for single-core hosts: with GOMAXPROCS=1 the worker goroutines
// time-share one CPU with the four mutators, so a concurrent rotation's
// driver-observed wall time absorbs whole scheduler quanta at every lock
// and channel handoff — the wall-based Mwords/s column collapses by
// orders of magnitude and says nothing about marking efficiency. The
// cpu-based column (marked words per second of collector-attributed
// collection time, Stats.GC.GCTime) filters the handoff latency out and
// is the comparable single-core figure; the wall-based column is the one
// expected to scale with workers on real cores.

// ParZoneConfig shapes the report.
type ParZoneConfig struct {
	HeapWords int
	Zones     int
	Threads   int
	AllocBuf  int
	// Ops is the number of allocations per mutator thread.
	Ops    int
	Locals int
	Seed   uint64
	// DriverInterval paces the rotations, exactly as the pause-isolation
	// report paces its collections.
	DriverInterval time.Duration
	// Workers lists the arms: each rotates with GCZonesConcurrent(w).
	Workers []int
}

// DefaultParZoneReport sizes the churn so every arm completes hundreds of
// rotations while the whole report stays under a minute.
var DefaultParZoneReport = ParZoneConfig{
	HeapWords:      1 << 19,
	Zones:          4,
	Threads:        4,
	AllocBuf:       2048,
	Ops:            4_000_000,
	Locals:         8,
	Seed:           1,
	DriverInterval: 200 * time.Microsecond,
	Workers:        []int{1, 2, 4},
}

// ParZoneRow is the measurement for one arm.
type ParZoneRow struct {
	Name string
	Wall time.Duration
	// OpsPerMS is aggregate mutator throughput across all threads.
	OpsPerMS float64
	// Rotations counts driver-issued whole-heap rotations and
	// ZoneCollections the per-zone collections they decomposed into.
	Rotations       uint64
	ZoneCollections uint64
	// MarkedWords is the cumulative marked-object volume over the run and
	// GCWall the driver wall time spent inside rotation calls; their ratio
	// MarkedPerSec is the aggregate GC throughput figure (the one that
	// scales with workers when cores are available). GCCPU is the
	// collector-attributed collection time (Stats.GC.GCTime, summed over
	// every zone collection even when several overlap), and MarkedPerCPUSec
	// the marking efficiency per collector-second — immune to scheduler
	// handoff latency on starved single-core hosts.
	MarkedWords     uint64
	GCWall          time.Duration
	MarkedPerSec    float64
	GCCPU           time.Duration
	MarkedPerCPUSec float64
}

// RunParZoneReport measures every arm on the identical churn script.
func RunParZoneReport(cfg ParZoneConfig, progress func(string)) []ParZoneRow {
	rows := make([]ParZoneRow, 0, len(cfg.Workers))
	for _, w := range cfg.Workers {
		name := fmt.Sprintf("conc-%d", w)
		if progress != nil {
			progress(fmt.Sprintf("parallel zones, %s", name))
		}
		rows = append(rows, runParZoneArm(cfg, name, w))
	}
	return rows
}

func runParZoneArm(cfg ParZoneConfig, name string, workers int) ParZoneRow {
	rt := core.New(core.Config{
		HeapWords:    cfg.HeapWords,
		Mode:         core.Infrastructure,
		AllocBuffers: cfg.AllocBuf,
		Zones:        cfg.Zones,
	})
	node := rt.DefineClass("PZNode",
		core.RefField("l"), core.RefField("r"), core.DataField("d"))

	// The hub lives in zone 0 and is written by every thread: each store
	// of a zone-z node into it is a cross-zone reference the remembered
	// sets must carry and every rotation must resolve.
	hub := rt.MainThread().NewRefArray(cfg.Threads * 8)
	rt.AddGlobal("hub").Set(hub)

	ths := make([]*core.Thread, cfg.Threads)
	for m := range ths {
		ths[m] = rt.NewThread(fmt.Sprintf("pz%d", m))
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	start := time.Now()
	for m := 0; m < cfg.Threads; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			th := ths[m]
			th.SetZone(rt.Zone(m % cfg.Zones))
			fr := th.PushFrame(cfg.Locals)
			rng := newSplitMix(cfg.Seed + uint64(m)*0x9e37)
			for i := 0; i < cfg.Ops; i++ {
				r := rng.next()
				switch {
				case r%8 < 5:
					_ = th.New(node)
				case r%8 < 7:
					_ = th.NewDataArray(int(r>>8)%24 + 8)
				default:
					_ = th.NewRefArray(int(r>>16)%8 + 1)
				}
				switch {
				case i%64 == 63:
					// Rolling zone-local retention so traces mark real data.
					fr.SetLocal(int(r>>32)%cfg.Locals, th.New(node))
				case i%256 == 128:
					// Cross-zone publication into the hub.
					rt.ArrSetRef(hub, m*8+int(r>>40)%8, th.New(node))
				}
			}
		}(m)
	}
	go func() { wg.Wait(); close(done) }()

	// The driver: one rotation per interval until the mutators finish.
	var rotations uint64
	var gcWall time.Duration
	for {
		select {
		case <-done:
			wall := time.Since(start)
			s := rt.Stats()
			row := ParZoneRow{
				Name:            name,
				Wall:            wall,
				OpsPerMS:        float64(cfg.Threads*cfg.Ops) / (float64(wall) / float64(time.Millisecond)),
				Rotations:       rotations,
				ZoneCollections: s.GC.ZoneCollections,
				MarkedWords:     s.GC.MarkedWords,
				GCWall:          gcWall,
				GCCPU:           s.GC.GCTime,
			}
			if gcWall > 0 {
				row.MarkedPerSec = float64(s.GC.MarkedWords) / gcWall.Seconds()
			}
			if s.GC.GCTime > 0 {
				row.MarkedPerCPUSec = float64(s.GC.MarkedWords) / s.GC.GCTime.Seconds()
			}
			return row
		default:
			t0 := time.Now()
			if err := rt.GCZonesConcurrent(workers); err != nil {
				panic(err)
			}
			gcWall += time.Since(t0)
			rotations++
			time.Sleep(cfg.DriverInterval)
		}
	}
}

// FormatParZoneReport renders the rows. Both throughput columns are
// normalized to the first row (conventionally width 1).
func FormatParZoneReport(rows []ParZoneRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel zone rotation: aggregate GC throughput vs rotation concurrency (driver rotates on a fixed cadence)\n")
	fmt.Fprintf(&b, "(conc-N = GCZonesConcurrent with N zones in flight, conc-1 = GCZones; GOMAXPROCS %d;\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, " wall-Mw/s = marked words over driver-observed rotation wall; cpu-Mw/s = over collector-attributed GC time)\n")
	fmt.Fprintf(&b, "%-11s %9s %8s %9s %9s %10s %10s %10s %10s %8s\n",
		"arm", "ops/ms", "rel-mut", "rotations", "zonegcs",
		"marked-Mw", "gc-wall-s", "wall-Mw/s", "cpu-Mw/s", "rel-cpu")
	var baseMut, baseCPU float64
	for i, r := range rows {
		if i == 0 {
			baseMut, baseCPU = r.OpsPerMS, r.MarkedPerCPUSec
		}
		relMut, relCPU := "-", "-"
		if i > 0 && baseMut > 0 {
			relMut = fmt.Sprintf("%.2fx", r.OpsPerMS/baseMut)
		}
		if i > 0 && baseCPU > 0 {
			relCPU = fmt.Sprintf("%.2fx", r.MarkedPerCPUSec/baseCPU)
		}
		fmt.Fprintf(&b, "%-11s %9.0f %8s %9d %9d %10.1f %10.2f %10.2f %10.2f %8s\n",
			r.Name, r.OpsPerMS, relMut, r.Rotations, r.ZoneCollections,
			float64(r.MarkedWords)/1e6, r.GCWall.Seconds(),
			r.MarkedPerSec/1e6, r.MarkedPerCPUSec/1e6, relCPU)
	}
	return b.String()
}
