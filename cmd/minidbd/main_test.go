package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/minidb"
	"repro/internal/telemetry"
)

// goodServe and goodDrive are valid baselines the reject cases perturb.
func goodServe() options {
	return options{
		addr: ":8080", heapWords: 1 << 21, entries: 100, workers: 2,
		allocBuf: 2048, gc: "stw",
	}
}

func goodDrive() options {
	o := goodServe()
	o.addr = ""
	o.selfdrive = true
	o.gc = "stw,concurrent"
	o.rates = "100,200"
	o.duration = time.Second
	o.inflight = 64
	return o
}

func TestValidateAccepts(t *testing.T) {
	withEvents := goodServe()
	withEvents.events = "ev.ndjson"
	leakDemo := goodServe()
	leakDemo.leakCache = true
	leakDemo.assert = true
	concurrent := goodDrive()
	concurrent.gc = "concurrent"
	direct := goodServe()
	direct.allocBuf = 0

	for i, o := range []options{
		goodServe(), goodDrive(), withEvents, leakDemo, concurrent, direct,
	} {
		if err := validate(o); err != nil {
			t.Errorf("case %d: validate(%+v) = %v, want nil", i, o, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"unknown collector", func(o *options) { o.gc = "shinynew" }, "unknown collector"},
		{"empty collector list", func(o *options) { o.gc = ", ," }, "no collector configs"},
		{"serve with collector list", func(o *options) { o.gc = "stw,concurrent" }, "serve mode runs one"},
		{"no addr", func(o *options) { o.addr = "" }, "-addr"},
		{"tiny heap", func(o *options) { o.heapWords = 8 }, "-heapwords"},
		{"no entries", func(o *options) { o.entries = 0 }, "-entries"},
		{"no workers", func(o *options) { o.workers = 0 }, "-workers"},
		{"negative allocbuf", func(o *options) { o.allocBuf = -1 }, "-allocbuf"},
		{"sub-minimum allocbuf", func(o *options) { o.allocBuf = 8 }, "minimum buffer"},
		// core.New would panic: a buffer must be smaller than the heap.
		{"allocbuf not below heap", func(o *options) { o.heapWords = 1024 }, "smaller than -heapwords"},
		{"eventdir without selfdrive", func(o *options) { o.eventDir = "d" }, "-eventdir"},
	}
	for _, c := range cases {
		o := goodServe()
		c.mut(&o)
		err := validate(o)
		if err == nil {
			t.Errorf("%s: validate(%+v) = nil, want error containing %q", c.name, o, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validate = %q, want it to contain %q", c.name, err, c.want)
		}
	}

	driveCases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"events in selfdrive", func(o *options) { o.events = "ev" }, "-events"},
		{"bad rates", func(o *options) { o.rates = "100,zero" }, "-rates"},
		{"negative rate", func(o *options) { o.rates = "-5" }, "-rates"},
		{"empty rates", func(o *options) { o.rates = "," }, "no rates"},
		{"zero duration", func(o *options) { o.duration = 0 }, "-duration"},
		{"no inflight", func(o *options) { o.inflight = 0 }, "-inflight"},
	}
	for _, c := range driveCases {
		o := goodDrive()
		c.mut(&o)
		err := validate(o)
		if err == nil {
			t.Errorf("%s: validate(%+v) = nil, want error containing %q", c.name, o, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validate = %q, want it to contain %q", c.name, err, c.want)
		}
	}
}

// TestServeSmallHeapIsAnError: a heap that passes validation but cannot hold
// the database fails serve mode with an error (exit 1), not a runtime panic,
// because serve mode builds its server the way a sweep cell does.
func TestServeSmallHeapIsAnError(t *testing.T) {
	o := goodServe()
	o.addr = "127.0.0.1:0"
	o.heapWords = 4096
	o.allocBuf = 0
	o.entries = 5000
	if err := validate(o); err != nil {
		t.Fatalf("validate = %v, want the options accepted", err)
	}
	err := runServe(o)
	if err == nil || !strings.Contains(err.Error(), "cell setup (heap 4096 words)") {
		t.Fatalf("runServe = %v, want a cell setup error", err)
	}
}

func TestParseRates(t *testing.T) {
	rates, err := parseRates(" 100, 250 ,500")
	if err != nil || len(rates) != 3 || rates[0] != 100 || rates[2] != 500 {
		t.Errorf("parseRates = %v, %v", rates, err)
	}
}

func TestParseCollectors(t *testing.T) {
	names, err := parseCollectors("stw, concurrent")
	if err != nil || len(names) != 2 || names[1] != "concurrent" {
		t.Errorf("parseCollectors = %v, %v", names, err)
	}
	// A name outside the registry is rejected, and the error names the
	// configs that exist.
	_, err = parseCollectors("lazysweep")
	if err == nil || !strings.Contains(err.Error(), `unknown collector config "lazysweep" (want concurrent, stw)`) {
		t.Errorf("parseCollectors(lazysweep) = %v, want an unknown-config error naming concurrent, stw", err)
	}
}

// TestServeListenErrorClosesEvents: serve mode on an address already in use
// returns the listen error, and closes the -events file on that path too.
func TestServeListenErrorClosesEvents(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	o := goodServe()
	o.addr = ln.Addr().String()
	o.heapWords = 1 << 16
	o.allocBuf = 0
	o.events = filepath.Join(t.TempDir(), "ev.ndjson")
	if err := validate(o); err != nil {
		t.Fatalf("validate = %v, want the options accepted", err)
	}
	err = runServe(o)
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("runServe = %v, want the listen error", err)
	}
	if openFiles(t, o.events) != 0 {
		t.Errorf("%s still open after runServe returned", o.events)
	}
}

// openFiles counts this process's file descriptors open on path. It skips
// the test where /proc/self/fd does not exist.
func openFiles(t *testing.T, path string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
			n++
		}
	}
	return n
}

// get fetches a path from the test server and returns the body.
func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// TestMuxEndpoints drives every endpoint through a real HTTP round trip.
func TestMuxEndpoints(t *testing.T) {
	rt := core.New(core.Config{
		HeapWords: 1 << 17,
		Mode:      core.Infrastructure,
		Telemetry: &telemetry.Config{},
	})
	srv := minidb.NewServer(rt, minidb.ServerConfig{Workers: 2, DB: minidb.Config{Entries: 50}})
	ts := httptest.NewServer(newMux(rt, srv))
	defer func() {
		ts.Close()
		srv.Close()
		if err := rt.Close(); err != nil {
			t.Error(err)
		}
	}()

	if code, body := get(t, ts.URL, "/find?key=5"); code != 200 || !strings.Contains(body, "found=true") {
		t.Errorf("/find?key=5 = %d %q", code, body)
	}
	if code, body := get(t, ts.URL, "/find?key=999999"); code != 200 || !strings.Contains(body, "found=false") {
		t.Errorf("/find absent = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL, "/find?key=bogus"); code != 400 {
		t.Errorf("/find with bad key = %d, want 400", code)
	}
	for _, path := range []string{"/scan", "/add", "/remove", "/session", "/healthz"} {
		if code, body := get(t, ts.URL, path); code != 200 {
			t.Errorf("%s = %d %q", path, code, body)
		}
	}
	if code, body := get(t, ts.URL, "/metrics"); code != 200 || !strings.Contains(body, "gcassert_request_count") {
		t.Errorf("/metrics = %d, want request series; body:\n%s", code, body)
	}
	if code, body := get(t, ts.URL, "/stats"); code != 200 || !strings.Contains(body, `served{op="find"} 2`) {
		t.Errorf("/stats = %d %q", code, body)
	}
}

// TestSelfdriveSweepOverLoopbackHTTP is the tentpole smoke: a tiny sweep
// through the real loopback HTTP transport completes requests in every
// cell, and the offline per-cell summaries account for them.
func TestSelfdriveSweepOverLoopbackHTTP(t *testing.T) {
	report, err := harness.RunServingSweep(harness.ServingConfig{
		HeapWords:   1 << 17,
		Workers:     2,
		Entries:     100,
		Collectors:  []string{"stw", "concurrent"},
		Rates:       []int{100},
		Duration:    150 * time.Millisecond,
		MaxInflight: 32,
		EventDir:    t.TempDir(),
	}, loopbackTransport(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range report.Cells {
		if c.Completed == 0 || c.Errors != 0 {
			t.Errorf("cell %s@%d: completed=%d errors=%d", c.Collector, c.TargetRPS, c.Completed, c.Errors)
		}
		if c.Summary.AllRequest.Count != c.Completed {
			t.Errorf("cell %s@%d: summary %d spans != completed %d",
				c.Collector, c.TargetRPS, c.Summary.AllRequest.Count, c.Completed)
		}
	}
}
