package harness

import (
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/minidb"
)

// tinySweep is a fast two-collector, two-rate sweep for tests.
func tinySweep(t *testing.T, transport Transport) ServingReport {
	t.Helper()
	report, err := RunServingSweep(ServingConfig{
		HeapWords:   1 << 17,
		Workers:     2,
		Entries:     200,
		Collectors:  []string{"stw", "concurrent"},
		Rates:       []int{100, 200},
		Duration:    150 * time.Millisecond,
		MaxInflight: 32,
		EventDir:    t.TempDir(),
	}, transport)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestServingSweepSmoke runs the in-process sweep and checks every cell
// measured real traffic and the offline summary agrees with the driver's
// counters.
func TestServingSweepSmoke(t *testing.T) {
	report := tinySweep(t, nil)
	if len(report.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(report.Cells))
	}
	for _, c := range report.Cells {
		if c.Completed == 0 {
			t.Errorf("cell %s@%d completed no requests", c.Collector, c.TargetRPS)
		}
		if c.Errors != 0 {
			t.Errorf("cell %s@%d had %d errors", c.Collector, c.TargetRPS, c.Errors)
		}
		// The offline summary of the NDJSON stream must account for exactly
		// the requests the driver completed — this is the same file gcmon
		// reads, so agreement here is agreement with the ops view.
		if c.Summary.AllRequest.Count != c.Completed {
			t.Errorf("cell %s@%d: summary counted %d request spans, driver completed %d",
				c.Collector, c.TargetRPS, c.Summary.AllRequest.Count, c.Completed)
		}
		if c.Summary.AllRequest.P99Nanos == 0 {
			t.Errorf("cell %s@%d: request p99 is zero", c.Collector, c.TargetRPS)
		}
		if _, err := os.Stat(c.EventsPath); err != nil {
			t.Errorf("cell %s@%d: events file missing: %v", c.Collector, c.TargetRPS, err)
		}
	}

	text := FormatServingReport(report)
	for _, want := range []string{
		"config=stw target=100 rps", "config=concurrent target=200 rps",
		"request", "p99",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestServingSweepTransportInjection proves the transport hook carries the
// traffic: a counting wrapper around the in-process path must see every
// request, and its shutdown must run per cell.
func TestServingSweepTransportInjection(t *testing.T) {
	var calls atomic.Uint64
	var shutdowns int
	report, err := RunServingSweep(ServingConfig{
		HeapWords:   1 << 17,
		Workers:     2,
		Entries:     100,
		Collectors:  []string{"stw"},
		Rates:       []int{100},
		Duration:    100 * time.Millisecond,
		MaxInflight: 16,
		EventDir:    t.TempDir(),
	}, func(srv *minidb.Server) (DoFunc, func(), error) {
		return func(op minidb.Op, key int64) error {
				calls.Add(1)
				_, err := srv.Do(op, key)
				return err
			}, func() {
				shutdowns++
			}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != report.Cells[0].Sent {
		t.Errorf("transport saw %d calls, driver sent %d", calls.Load(), report.Cells[0].Sent)
	}
	if shutdowns != 1 {
		t.Errorf("shutdown ran %d times, want 1", shutdowns)
	}
	if report.Cells[0].Completed == 0 {
		t.Error("no requests completed through transport")
	}
}

// TestServingCollectorRegistry pins the sweepable config names.
func TestServingCollectorRegistry(t *testing.T) {
	for _, name := range []string{"stw", "concurrent"} {
		if !KnownServingCollector(name) {
			t.Errorf("collector %q unknown", name)
		}
	}
	for _, name := range []string{"shinynew", "lazysweep"} {
		if KnownServingCollector(name) {
			t.Errorf("unknown collector %q accepted", name)
		}
	}
	if _, err := RunServingSweep(ServingConfig{
		Collectors: []string{"bogus"},
		Rates:      []int{50},
		Duration:   10 * time.Millisecond,
		EventDir:   t.TempDir(),
	}, nil); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("sweep with bogus collector: err = %v", err)
	}
}
