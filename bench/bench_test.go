package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// smoke is the options every test runs with: 1% of the real sizes.
var smoke = options{seed: DefaultSeed, seconds: 20, scale: 0.01}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesTables pins BENCHMARK.json to the tables the driver
// reports from, and to the limits the benchmark contract sets on the file.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the driver has %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := mf.Workloads[i]
		name(got.Name)
		if got.Name != w.Name || got.Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: manifest %q, driver %q (why: %d chars)", i, got.Name, w.Name, len(w.Why))
		}
	}
	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest lists %d end-to-end metrics, the driver has %d", len(mf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := mf.EndToEnd[i]
		name(got.Name)
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: manifest %+v, driver %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v outside the contract", d.Name, d.Unit, d.Bound)
		}
	}
	if len(mf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("manifest lists %d per-layer metrics, the driver has %d", len(mf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := mf.PerLayer[i]
		name(got.Name)
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || !unitRE.MatchString(d.Unit) {
			t.Errorf("per-layer metric %d: manifest %+v, driver %+v", i, got, d)
		}
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", mf.RunSeconds)
	}
}

// waitForGoroutines fails the test unless the goroutine count returns to
// base: a workload that leaves a server worker or a pacer behind is the bug
// that sank an earlier attempt at this benchmark. Exiting goroutines are
// counted until they are fully gone, hence the short poll.
func waitForGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s left %d goroutines running (baseline %d):\n%s",
				what, runtime.NumGoroutine()-base, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func checkResult(t *testing.T, res result, err error, defs []metricDef, positive bool) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s not reported", d.Name)
		case v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s = %v %s, want a finite value in %s", d.Name, v.Value, v.Unit, d.Unit)
		case positive && v.Value <= 0:
			t.Errorf("%s = %v, want > 0", d.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload's untraced and traced run at 1% scale and
// checks the reported names against the tables, the values, the failure
// count and that nothing keeps running afterwards.
func TestSmoke(t *testing.T) {
	runtime.GOMAXPROCS(benchProcs)
	for _, def := range workloads {
		t.Run(def.Name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			res, err := runEndToEnd(def, smoke)
			checkResult(t, res, err, endToEnd, true)
			waitForGoroutines(t, base, "untraced run")

			o := smoke
			o.traceOut = filepath.Join(t.TempDir(), "spans.ndjson")
			res, err = runTraced(def, o)
			checkResult(t, res, err, perLayer, false)
			waitForGoroutines(t, base, "traced run")
			if st, err := os.Stat(o.traceOut); err != nil || st.Size() == 0 {
				t.Errorf("no spans written to %s: %v", o.traceOut, err)
			}
			// A layer the workload crosses must have been seen crossing it.
			crossed := map[string][]string{
				"jbb_batch":   {"jbb.neworder_us", "jbb.payment_us", "jbb.delivery_us", "core.getref_ns"},
				"armed_gc":    {"gc.ownership_ms", "minidb.direct_remove_us", "gc.armed_over_base", "sidetab.chunk_bytes"},
				"serve_read":  {"minidb.do_find_p50_us", "minidb.direct_find_us", "minidb.served"},
				"serve_churn": {"minidb.do_session_p50_us", "core.buffer_carves", "gc.inc_slice_ms", "core.pacer_triggers"},
			}
			for _, name := range crossed[def.Name] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v on %s, want > 0", name, res.Metrics[name].Value, def.Name)
				}
			}
		})
	}
}

// TestArmedGCCountsRepeat runs armed_gc's traced run twice with a fixed op
// count and one seed: the counts the collector and the assertion engine
// report must repeat exactly, and match what the op script dictates.
func TestArmedGCCountsRepeat(t *testing.T) {
	def := workloadByName("armed_gc")
	o := smoke
	o.ops = 40
	exact := map[string]float64{
		"gc.collections":                  12, // tracedShare of 40 ops
		"trace.ownees_checked_per_cycle":  armedEntries,
		"trace.dead_hits_per_cycle":       armedLeaks,
		"assertions.ownees_live":          armedEntries,
		"assertions.violations_per_cycle": armedLeaks,
		"report.violations":               12 * armedLeaks,
	}
	repeat := []string{
		"gc.marked_words_per_cycle", "gc.freed_words_per_cycle",
		"trace.refs_scanned_per_cycle", "sidetab.chunk_bytes",
	}
	first, err := runTraced(def, o)
	checkResult(t, first, err, perLayer, false)
	second, err := runTraced(def, o)
	checkResult(t, second, err, perLayer, false)
	for name, want := range exact {
		if got := first.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want exactly %v", name, got, want)
		}
		repeat = append(repeat, name)
	}
	for _, name := range repeat {
		if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b || a == 0 {
			t.Errorf("%s = %v then %v with the same seed, want one non-zero value", name, a, b)
		}
	}
}

// TestSeedFixesInputs checks that a seed determines the op stream and that
// another seed gives another one.
func TestSeedFixesInputs(t *testing.T) {
	stream := func(seed uint64) []int {
		r := newRNG(seed, 0)
		out := make([]int, 64)
		for i := range out {
			out[i] = r.intn(1000)
		}
		return out
	}
	a, b, c := stream(DefaultSeed), stream(DefaultSeed), stream(HeldOutSeed)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d gave two streams", DefaultSeed)
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/4 {
		t.Errorf("seeds %d and %d agree on %d of %d draws", DefaultSeed, HeldOutSeed, same, len(a))
	}
}
