// Command bench is the repository's benchmark: four closed-loop workloads
// over repro/internal/..., called in process (no child process, no socket),
// five end-to-end metrics per workload from an untraced run, and about 55
// per-layer metrics from a separate traced run. bench/README.md defines the
// workloads and metrics and says which layer metric should move which
// end-to-end metric.
//
//	bash bench/run.sh --workload jbb_batch --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. The exit code is 0 whenever that line was printed — a
// failed output check is reported in it as correct: false — and non-zero when
// no result could be produced (bad arguments, a panic, the watchdog).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// Seeds: DefaultSeed is the one the README's tables were recorded with;
// HeldOutSeed is never used while a change is written, so a claimed gain can
// be confirmed on inputs the change was not tuned to.
const (
	DefaultSeed = 1
	HeldOutSeed = 7
)

// benchProcs pins GOMAXPROCS: two clients against two workers is the shape
// the serve_* workloads measure, and before Go 1.25 GOMAXPROCS ignores a
// container's CPU quota.
const benchProcs = 2

type options struct {
	seed     uint64
	seconds  float64 // measured window at scale 1
	ops      int     // > 0: run exactly this many ops per client instead
	scale    float64 // multiplies the window, warm-up and isolated-call counts
	traceOut string
}

func (o options) window() time.Duration {
	return time.Duration(o.seconds * o.scale * float64(time.Second))
}

// scaled applies the scale to a count, keeping at least one.
func (o options) scaled(n int) int {
	if n = int(float64(n) * o.scale); n < 1 {
		n = 1
	}
	return n
}

// result is one run of one workload: the contract's JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// whole holds the same window's figures before the slower slices are
	// set aside; printed for the reader, not part of the JSON line.
	whole string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values turns measured numbers into the result's metric map, checking that
// every metric of defs, and nothing else, was measured.
func values(defs []metricDef, got map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("bench: metric %s not measured (%v)", d.Name, v))
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	if len(got) != len(defs) {
		panic(fmt.Sprintf("bench: measured %d metrics, the table lists %d", len(got), len(defs)))
	}
	return out
}

// hostHeapInuse is the Go heap in use after a full host collection, in MB.
func hostHeapInuse() float64 {
	runtime.GC()
	runtime.GC() // the second cycle finishes the first one's sweep
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// setupRounds is how many times the untraced run sets the workload up; the
// median is setup_s and the last instance is the one measured.
const setupRounds = 3

// setUp builds and warms one instance and returns how long that took.
func setUp(def *workloadDef, o options, tele *telemetry.Config) (instance, time.Duration) {
	start := time.Now()
	inst := def.Build(o.seed, tele)
	drive(def, inst, nil, nil, o.scaled(def.WarmOps), 0)
	return inst, time.Since(start)
}

// sampleBuffers sizes one buffer per client at four times the seed's
// throughput, so a much faster program still appends without growing them
// inside the host-memory reading.
func sampleBuffers(def *workloadDef, o options) []*samples {
	n := o.ops
	if n <= 0 {
		n = int(4 * float64(def.OpsPerSec) * o.window().Seconds() / float64(def.Clients))
	}
	rec := make([]*samples, def.Clients)
	for c := range rec {
		rec[c] = newSamples(n + 16)
	}
	return rec
}

// runEndToEnd is the untraced run: program telemetry off, no spans.
func runEndToEnd(def *workloadDef, o options) (result, error) {
	rec := sampleBuffers(def, o)
	base := hostHeapInuse()

	var (
		inst   instance
		setups []float64
	)
	for i := 0; i < setupRounds; i++ {
		if inst != nil {
			if err := inst.Close(); err != nil {
				return result{}, err
			}
		}
		var d time.Duration
		inst, d = setUp(def, o, nil)
		setups = append(setups, d.Seconds())
	}
	sort.Float64s(setups)
	def.condition(inst, o)

	drive(def, inst, rec, nil, o.ops, o.window())
	live := hostHeapInuse() - base
	checkErr := inst.Check()
	if err := inst.Close(); err != nil && checkErr == nil {
		checkErr = err
	}

	st := summarize(rec)
	res := result{
		Correct:   checkErr == nil && st.failed == 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics: values(endToEnd, map[string]float64{
			"setup_s":      quantile(setups, 0.5),
			"ops_per_s":    st.opsPerSec,
			"lat_p50_us":   st.p50 / 1e3,
			"lat_p99_us":   st.p99 / 1e3,
			"host_live_mb": live,
		}),
		whole: fmt.Sprintf("whole window %.4f 1/s, p50 %.4f us, p99 %.4f us; reported: the fastest %d of %d slices",
			st.wholeOpsPerSec, st.wholeP50/1e3, st.wholeP99/1e3, keptSlices, windowSlices),
	}
	return res, checkErr
}

// watchdog exits the process non-zero when a run overstays three times its
// expected wall time, instead of hanging the caller. The returned stop must
// be called when the run ends.
func watchdog(name string, o options) (stop func() bool) {
	expected := o.window() + 15*time.Second
	if o.ops > 0 {
		expected = 60 * time.Second
	}
	limit := 3 * expected
	return time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running after %v (3x its expected wall time); giving up\n", name, limit)
		os.Exit(3)
	}).Stop
}

func printMetrics(defs []metricDef, res result) {
	for _, d := range defs {
		fmt.Printf("  %-34s %16.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}

func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout
}

func main() {
	var (
		o        options
		workload = flag.String("workload", "all", "workload name, or all")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		repeat   = flag.Int("repeat", 1, "run N times and print each end-to-end metric's spread beside its bound")
	)
	flag.Uint64Var(&o.seed, "seed", DefaultSeed, fmt.Sprintf("seed for every choice the benchmark makes (held-out seed: %d)", HeldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&o.ops, "ops", 0, "run exactly this many ops per client instead of a timed window")
	flag.Float64Var(&o.scale, "scale", 1, "multiply the window, warm-up and isolated-call counts (smoke tests)")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans here as NDJSON when the run ends")
	flag.Parse()

	defs := workloads
	if *workload != "all" {
		def := workloadByName(*workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		defs = []*workloadDef{def}
	}
	if flag.NArg() > 0 || o.seconds <= 0 || o.scale <= 0 || *repeat < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	runtime.GOMAXPROCS(benchProcs)
	fmt.Printf("bench: git %s, nproc %d, GOMAXPROCS %d, %s, seed %d, window %v, scale %g\n",
		gitRevision(), runtime.NumCPU(), benchProcs, runtime.Version(), o.seed, o.window(), o.scale)

	for _, def := range defs {
		var runs []result
		for i := 0; i < *repeat; i++ {
			stop := watchdog(def.Name, o)
			run, table := runEndToEnd, endToEnd
			if *trace == 1 {
				run, table = runTraced, perLayer
			}
			res, err := run(def, o)
			stop()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			}
			if res.Metrics == nil {
				os.Exit(1) // the run itself broke; there is no result to print
			}
			fmt.Printf("%s: attempted %d, failed %d, correct %v\n", def.Name, res.Attempted, res.Failed, res.Correct)
			printMetrics(table, res)
			if res.whole != "" {
				fmt.Printf("  (%s)\n", res.whole)
			}
			runs = append(runs, res)
		}
		if *repeat > 1 && *trace == 0 {
			printSpread(def.Name, runs)
		}
		line, err := json.Marshal(runs[len(runs)-1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
}

// printSpread is the -repeat self-check: for each end-to-end metric the
// range and the interquartile distance of the runs as shares of their
// median, beside the bound. The interquartile distance is what the
// benchmark's acceptance looks at; it should stay below a third of the bound.
func printSpread(name string, runs []result) {
	fmt.Printf("%s: spread over %d runs\n", name, len(runs))
	fmt.Printf("  %-14s %14s %10s %10s %8s\n", "metric", "median", "range/med", "iqr/med", "bound")
	for _, d := range endToEnd {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = r.Metrics[d.Name].Value
		}
		sort.Float64s(vs)
		med := quantile(vs, 0.5)
		rng := (vs[len(vs)-1] - vs[0]) / med
		iqr := (quantile(vs, 0.75) - quantile(vs, 0.25)) / med
		flag := ""
		if iqr > d.Bound/3 {
			flag = "  <- above a third of the bound"
		}
		fmt.Printf("  %-14s %14.4f %9.2f%% %9.2f%% %7.0f%%%s\n", d.Name, med, 100*rng, 100*iqr, 100*d.Bound, flag)
	}
}

// quantile interpolates linearly in sorted values.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
