// Command minidbd serves the minidb workload over HTTP — the network-facing
// half of the paper's _209_db case study. Request handlers allocate through
// a pool of buffered mutator threads on one shared runtime, so GC pauses
// surface as request tail latency, and the telemetry stream (one request
// span per reply, queueing included) is the same NDJSON file `gcmon
// -follow` summarizes live.
//
// Serve mode:
//
//	minidbd -addr :8080 -gc concurrent -events /tmp/minidbd.ndjson
//
// Endpoints: /find?key=N, /scan, /add, /remove, /session (the session-cache
// op; with -leakcache it is the paper's injected retention defect, with
// -assert the expired sessions are asserted dead), /metrics (Prometheus
// text), /stats (counter snapshot), /healthz.
//
// Selfdrive mode runs the sustained-load sweep against this same server
// stack through a loopback HTTP transport — the full network path — one
// fresh runtime per (collector, rate) cell:
//
//	minidbd -selfdrive -gc stw,concurrent -rates 200,500 -duration 2s
//
// It prints the latency-vs-throughput report (p50/p95/p99 per cell from
// the offline summary of each cell's event stream); a cell that cannot be
// set up or measured exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/minidb"
	"repro/internal/telemetry"
	"repro/internal/vmheap"
)

// options collects the flag values so validation is testable apart from
// flag parsing and execution.
type options struct {
	addr      string
	heapWords int
	entries   int
	workers   int
	allocBuf  int
	gc        string
	leakCache bool
	assert    bool
	events    string

	selfdrive bool
	eventDir  string
	rates     string
	duration  time.Duration
	inflight  int
}

// parseRates decodes the -rates comma list.
func parseRates(s string) ([]int, error) {
	var rates []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-rates %q: %q is not a positive request rate", s, part)
		}
		rates = append(rates, n)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-rates %q: no rates given", s)
	}
	return rates, nil
}

// parseCollectors decodes the -gc comma list against the harness registry.
func parseCollectors(s string) ([]string, error) {
	var names []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !harness.KnownServingCollector(part) {
			return nil, fmt.Errorf("-gc %q: unknown collector config %q (want %s)",
				s, part, strings.Join(harness.ServingCollectorNames(), ", "))
		}
		names = append(names, part)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-gc %q: no collector configs given", s)
	}
	return names, nil
}

// validate rejects option combinations that would otherwise fail deep
// inside the server or silently measure the wrong thing.
func validate(o options) error {
	if _, err := parseCollectors(o.gc); err != nil {
		return err
	}
	if !o.selfdrive {
		if cs, _ := parseCollectors(o.gc); len(cs) > 1 {
			return fmt.Errorf("-gc %q: serve mode runs one collector config; a comma list is for -selfdrive", o.gc)
		}
		if o.addr == "" {
			return fmt.Errorf("-addr is required in serve mode")
		}
	}
	if o.heapWords < vmheap.MinHeapWords {
		return fmt.Errorf("-heapwords %d: below the minimum heap of %d words", o.heapWords, vmheap.MinHeapWords)
	}
	if o.entries < 1 {
		return fmt.Errorf("-entries %d: need at least one record", o.entries)
	}
	if o.workers < 1 {
		return fmt.Errorf("-workers %d: need at least one worker thread", o.workers)
	}
	if o.allocBuf < 0 {
		return fmt.Errorf("-allocbuf %d: cannot be negative", o.allocBuf)
	}
	if o.allocBuf > 0 && o.allocBuf < vmheap.MinBufferWords {
		return fmt.Errorf("-allocbuf %d: below the minimum buffer of %d words (use 0 for direct allocation)", o.allocBuf, vmheap.MinBufferWords)
	}
	if o.allocBuf >= o.heapWords {
		return fmt.Errorf("-allocbuf %d: must be smaller than -heapwords %d", o.allocBuf, o.heapWords)
	}
	// -assert with -leakcache is deliberately allowed in serve mode:
	// serving with the defect armed is how the demo shows gcmon catching
	// it live.
	if o.selfdrive {
		if o.events != "" {
			return fmt.Errorf("-events with -selfdrive: the sweep writes one stream per cell into its own directory; point gcmon at the serving_*.ndjson files it reports")
		}
		if _, err := parseRates(o.rates); err != nil {
			return err
		}
		if o.duration <= 0 {
			return fmt.Errorf("-duration %v: the measured window must be positive", o.duration)
		}
		if o.inflight < 1 {
			return fmt.Errorf("-inflight %d: need at least one outstanding request", o.inflight)
		}
	} else if o.eventDir != "" {
		return fmt.Errorf("-eventdir without -selfdrive: serve mode streams one file via -events")
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "serve-mode listen address")
	heapWords := flag.Int("heapwords", 1<<21, "managed heap size in words")
	entries := flag.Int("entries", 5000, "initial database records")
	workers := flag.Int("workers", 4, "mutator worker threads")
	allocBuf := flag.Int("allocbuf", 2048, "per-thread allocation buffer words (0 = direct free-list allocation)")
	gc := flag.String("gc", "stw", "collector config: "+strings.Join(harness.ServingCollectorNames(), ", ")+" (comma list in -selfdrive)")
	leakCache := flag.Bool("leakcache", false, "inject the session-retention defect (expired sessions kept in a shared cache)")
	assert := flag.Bool("assert", false, "arm the paper's assertions: ownership on add, assert-dead on remove and session expiry")
	events := flag.String("events", "", "stream telemetry NDJSON here (gcmon -follow summarizes it live)")

	selfdrive := flag.Bool("selfdrive", false, "run the serving sweep against a loopback HTTP server instead of serving")
	eventDir := flag.String("eventdir", "", "selfdrive: directory for the per-cell serving_*.ndjson streams (default: a temp dir)")
	rates := flag.String("rates", "200,500", "selfdrive: comma list of open-loop request rates (rps)")
	duration := flag.Duration("duration", 2*time.Second, "selfdrive: measured window per cell")
	inflight := flag.Int("inflight", 256, "selfdrive: max outstanding requests before the generator counts drops")
	flag.Parse()

	opts := options{
		addr: *addr, heapWords: *heapWords, entries: *entries,
		workers: *workers, allocBuf: *allocBuf, gc: *gc,
		leakCache: *leakCache, assert: *assert, events: *events,
		selfdrive: *selfdrive, eventDir: *eventDir, rates: *rates, duration: *duration,
		inflight: *inflight,
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "minidbd: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	if err := validate(opts); err != nil {
		fmt.Fprintf(os.Stderr, "minidbd: %v\n", err)
		os.Exit(2)
	}

	if opts.selfdrive {
		os.Exit(runSelfdrive(opts))
	}
	if err := runServe(opts); err != nil {
		fmt.Fprintf(os.Stderr, "minidbd: %v\n", err)
		os.Exit(1)
	}
}

// servingConfig builds the runtime-and-server shape shared by both modes.
func servingConfig(o options) harness.ServingConfig {
	return harness.ServingConfig{
		HeapWords:     o.heapWords,
		Workers:       o.workers,
		AllocBufWords: o.allocBuf,
		Entries:       o.entries,
		LeakCache:     o.leakCache,
		Assert:        o.assert,
	}
}

// runServe is the long-running server mode. It builds its runtime and server
// the way a sweep cell does (harness.NewServingServer), so a heap too small
// for the database is an error, not a panic.
func runServe(o options) error {
	coreCfg := core.Config{
		HeapWords:    o.heapWords,
		Mode:         core.Infrastructure,
		AllocBuffers: o.allocBuf,
	}
	var sink *os.File
	if o.events != "" {
		f, err := os.Create(o.events)
		if err != nil {
			return err
		}
		sink = f
		coreCfg.Telemetry = &telemetry.Config{Sink: f}
	} else {
		coreCfg.Telemetry = &telemetry.Config{}
	}
	harness.ApplyServingCollector(o.gc, &coreCfg)
	rt, srv, err := harness.NewServingServer(coreCfg, servingConfig(o))
	if err != nil {
		if sink != nil {
			sink.Close()
		}
		return err
	}

	httpSrv := &http.Server{Addr: o.addr, Handler: newMux(rt, srv)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "minidbd: serving on %s (gc=%s workers=%d heap=%d words)\n",
		o.addr, o.gc, o.workers, o.heapWords)

	// stop closes what the HTTP server ran on, each after everything that
	// uses it (the minidb server, the runtime, the event sink the runtime's
	// telemetry writes into), and returns the first error.
	stop := func(err error) error {
		srv.Close()
		if cerr := rt.Close(); err == nil {
			err = cerr
		}
		if sink != nil {
			if cerr := sink.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		return stop(err)
	case s := <-sigc:
		fmt.Fprintf(os.Stderr, "minidbd: %v, shutting down\n", s)
	}
	// Shutdown stops accepting and waits for in-flight handlers, so none
	// emits request telemetry after the sink closes. A handler still inside
	// srv.Do at the deadline has its connection cut.
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err = httpSrv.Shutdown(ctx)
	if err != nil {
		httpSrv.Close()
	}
	return stop(err)
}

// shutdownGrace bounds how long serve mode waits for in-flight requests
// after SIGINT/SIGTERM.
const shutdownGrace = 5 * time.Second

// newMux wires the request endpoints plus metrics/health/stats.
func newMux(rt *core.Runtime, srv *minidb.Server) *http.ServeMux {
	mux := http.NewServeMux()
	for op := minidb.Op(0); op < minidb.NumOps; op++ {
		op := op
		mux.HandleFunc("/"+op.String(), func(w http.ResponseWriter, r *http.Request) {
			var key int64
			if s := r.URL.Query().Get("key"); s != "" {
				n, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					http.Error(w, fmt.Sprintf("bad key %q", s), http.StatusBadRequest)
					return
				}
				key = n
			}
			resp, err := srv.Do(op, key)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			fmt.Fprintf(w, "op=%s found=%v len=%d sum=%d\n", op, resp.Found, resp.Len, resp.Sum)
		})
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := rt.Metrics().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st := srv.Stats()
		for op := minidb.Op(0); op < minidb.NumOps; op++ {
			fmt.Fprintf(w, "served{op=%q} %d\n", op, st.Served[op])
		}
		fmt.Fprintf(w, "failed %d\nexpired %d\nleaked %d\nviolations %d\n",
			st.Failed, st.Expired, st.Leaked, len(rt.Violations()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

// loopbackTransport wires a sweep cell's server behind a real HTTP
// listener on 127.0.0.1 and issues its requests as HTTP GETs, so the
// measured spans cover the full network path the serve mode exposes. The
// client timeout bounds every request: a wedged cell surfaces as request
// errors in the report instead of hanging the sweep (and the CI smoke arm)
// on driveOpenLoop's final wait.
func loopbackTransport(timeout time.Duration) harness.Transport {
	return func(srv *minidb.Server) (harness.DoFunc, func(), error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		httpSrv := &http.Server{Handler: newMux(srv.Runtime(), srv)}
		go httpSrv.Serve(ln)
		base := "http://" + ln.Addr().String()
		client := &http.Client{Timeout: timeout}
		do := func(op minidb.Op, key int64) error {
			resp, err := client.Get(fmt.Sprintf("%s/%s?key=%d", base, op, key))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s: HTTP %d", op, resp.StatusCode)
			}
			return nil
		}
		shutdown := func() {
			httpSrv.Close()
			client.CloseIdleConnections()
		}
		return do, shutdown, nil
	}
}

// requestTimeout picks the loopback client timeout: comfortably above the
// worst legitimate queueing delay (a request sent at the start of a cell can
// wait out most of its window under overload), so only a genuinely stuck
// server trips it.
func requestTimeout(o options) time.Duration {
	return o.duration + 2*time.Second
}

// runSelfdrive runs the sweep; returns the process exit code.
func runSelfdrive(o options) int {
	cfg := servingConfig(o)
	cfg.Collectors, _ = parseCollectors(o.gc)
	cfg.Rates, _ = parseRates(o.rates)
	cfg.Duration = o.duration
	cfg.MaxInflight = o.inflight
	cfg.EventDir = o.eventDir
	fmt.Fprintf(os.Stderr, "minidbd: sweeping %d collector configs x %d rates, %v per cell over loopback HTTP\n",
		len(cfg.Collectors), len(cfg.Rates), o.duration)
	report, err := harness.RunServingSweep(cfg, loopbackTransport(requestTimeout(o)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "minidbd: sweep: %v\n", err)
		return 1
	}
	fmt.Print(harness.FormatServingReport(report))
	return 0
}
