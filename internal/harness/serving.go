package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/minidb"
	"repro/internal/telemetry"
)

// The serving harness: an open-loop load generator swept across request
// rates and collector configurations, producing latency-vs-throughput
// curves where GC pauses appear as request tail latency — the SLO view the
// batch drivers cannot give. Every cell runs a fresh runtime + minidb
// server with its telemetry NDJSON stream on disk; the cell's latency
// quantiles are computed OFFLINE from that stream (exact, not histogram
// bounds), which is byte-for-byte the stream `gcmon -follow` summarizes
// live — so the ops view and the report cannot disagree.

// servingCollectors maps a collector-config name to its core.Config shape.
// The map is ordered by servingCollectorNames for stable reports.
var servingCollectors = map[string]func(*core.Config){
	// stw: the paper's stop-the-world mark-sweep baseline.
	"stw": func(cfg *core.Config) {},
	// concurrent: the background pacer with mutator assists (DESIGN §11).
	"concurrent": func(cfg *core.Config) {
		cfg.ConcurrentGC = true
	},
}

// ServingCollectorNames returns the known collector-config names.
func ServingCollectorNames() []string {
	names := make([]string, 0, len(servingCollectors))
	for name := range servingCollectors {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// KnownServingCollector reports whether name is a sweepable collector
// config.
func KnownServingCollector(name string) bool {
	_, ok := servingCollectors[name]
	return ok
}

// ApplyServingCollector shapes cfg for the named collector config; unknown
// names are a no-op (callers validate with KnownServingCollector first).
func ApplyServingCollector(name string, cfg *core.Config) {
	if apply, ok := servingCollectors[name]; ok {
		apply(cfg)
	}
}

// ServingConfig shapes one sweep.
type ServingConfig struct {
	// HeapWords sizes each cell's fixed heap (default 1<<21).
	HeapWords int
	// Workers is the server's mutator-thread pool (default 4).
	Workers int
	// AllocBufWords enables the bump-allocation fast path on the workers
	// (default 2048; the serving story is buffered mutator threads).
	AllocBufWords int
	// Entries, SessionItems, SessionCap shape the database and session
	// churn (defaults 5000 / 8 / 64).
	Entries      int
	SessionItems int
	SessionCap   int
	// LeakCache injects the retention defect; Assert arms the paper's
	// assertions (ownership on add, dead on remove and session expiry).
	LeakCache bool
	Assert    bool

	// Collectors are the collector-config names to sweep (default
	// {"stw", "concurrent"}).
	Collectors []string
	// Rates are the open-loop target request rates, per second (default
	// {200, 500}).
	Rates []int
	// Duration is the measured window per cell (default 2s).
	Duration time.Duration
	// MaxInflight caps concurrently outstanding requests; at the cap the
	// generator counts drops instead of launching more — open-loop, but
	// bounded (default 256).
	MaxInflight int
	// EventDir receives each cell's NDJSON stream,
	// serving_<collector>_<rps>.ndjson ("" = a temp dir). Point
	// `gcmon -follow` at the live file while a sweep runs for the ops view.
	EventDir string
}

func (c ServingConfig) withDefaults() ServingConfig {
	if c.HeapWords == 0 {
		c.HeapWords = 1 << 21
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.AllocBufWords == 0 {
		c.AllocBufWords = 2048
	}
	if c.Entries == 0 {
		c.Entries = 5000
	}
	if len(c.Collectors) == 0 {
		c.Collectors = []string{"stw", "concurrent"}
	}
	if len(c.Rates) == 0 {
		c.Rates = []int{200, 500}
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	return c
}

// DoFunc issues one request against a cell's server; the harness's default
// is the in-process minidb.Server.Do, and cmd/minidbd substitutes an HTTP
// loopback transport so the sweep exercises the full network path.
type DoFunc func(op minidb.Op, key int64) error

// Transport wraps a cell's server into the request function the load
// generator calls, plus a shutdown hook. nil Transport = direct in-process
// calls.
type Transport func(srv *minidb.Server) (do DoFunc, shutdown func(), err error)

// ServingCell is one (collector, rate) measurement.
type ServingCell struct {
	Collector string
	TargetRPS int

	Sent, Completed, Errors, Dropped uint64
	AchievedRPS                      float64

	// Summary is the offline aggregation of the cell's NDJSON stream —
	// identical to what `gcmon <file>` prints for it.
	Summary    telemetry.Summary
	EventsPath string
}

// ServingReport is a completed sweep.
type ServingReport struct {
	Config ServingConfig
	Cells  []ServingCell
}

// RunServingSweep measures every (collector, rate) cell with a fresh
// runtime and server per cell, transport-injected or in-process.
func RunServingSweep(cfg ServingConfig, transport Transport) (ServingReport, error) {
	cfg = cfg.withDefaults()
	dir := cfg.EventDir
	if dir == "" {
		d, err := os.MkdirTemp("", "serving-")
		if err != nil {
			return ServingReport{}, err
		}
		dir = d
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return ServingReport{}, err
	}
	report := ServingReport{Config: cfg}
	for _, collector := range cfg.Collectors {
		if !KnownServingCollector(collector) {
			return report, fmt.Errorf("unknown collector config %q (known: %s)",
				collector, strings.Join(ServingCollectorNames(), ", "))
		}
		for _, rate := range cfg.Rates {
			cell, err := runServingCell(cfg, collector, rate, dir, transport)
			if err != nil {
				return report, fmt.Errorf("cell %s@%d: %w", collector, rate, err)
			}
			report.Cells = append(report.Cells, cell)
		}
	}
	return report, nil
}

// NewServingServer builds a runtime and a minidb server on it — one sweep
// cell's, or cmd/minidbd's serve mode — converting the runtime's init-time
// panics (a config the heap cannot hold) into errors, so an infeasible
// config fails legibly instead of crashing the process.
func NewServingServer(coreCfg core.Config, cfg ServingConfig) (rt *core.Runtime, srv *minidb.Server, err error) {
	defer func() {
		if r := recover(); r != nil {
			if rt != nil {
				rt.Close()
			}
			rt, srv = nil, nil
			err = fmt.Errorf("cell setup (heap %d words): %v", cfg.HeapWords, r)
		}
	}()
	rt = core.New(coreCfg)
	srv = minidb.NewServer(rt, minidb.ServerConfig{
		Workers:            cfg.Workers,
		SessionItems:       cfg.SessionItems,
		SessionCap:         cfg.SessionCap,
		AssertDeadSessions: cfg.Assert,
		DB: minidb.Config{
			Entries:            cfg.Entries,
			AssertOwnership:    cfg.Assert,
			AssertDeadOnRemove: cfg.Assert,
			LeakCache:          cfg.LeakCache,
		},
	})
	return rt, srv, nil
}

// runServingCell measures one (collector, rate) cell.
func runServingCell(cfg ServingConfig, collector string, rate int, dir string, transport Transport) (ServingCell, error) {
	cell := ServingCell{
		Collector:  collector,
		TargetRPS:  rate,
		EventsPath: filepath.Join(dir, fmt.Sprintf("serving_%s_%d.ndjson", collector, rate)),
	}
	sink, err := os.Create(cell.EventsPath)
	if err != nil {
		return cell, err
	}

	coreCfg := core.Config{
		HeapWords:    cfg.HeapWords,
		Mode:         core.Infrastructure,
		AllocBuffers: cfg.AllocBufWords,
		Telemetry:    &telemetry.Config{Sink: sink},
	}
	servingCollectors[collector](&coreCfg)
	rt, srv, err := NewServingServer(coreCfg, cfg)
	if err != nil {
		sink.Close()
		return cell, err
	}

	do := DoFunc(func(op minidb.Op, key int64) error {
		_, err := srv.Do(op, key)
		return err
	})
	shutdown := func() {}
	if transport != nil {
		do, shutdown, err = transport(srv)
		if err != nil {
			srv.Close()
			rt.Close()
			sink.Close()
			return cell, err
		}
	}

	driveOpenLoop(&cell, do, rate, cfg.Duration, cfg.MaxInflight)

	shutdown()
	srv.Close()
	if err := rt.Close(); err != nil {
		sink.Close()
		return cell, err
	}
	if err := sink.Close(); err != nil {
		return cell, err
	}

	f, err := os.Open(cell.EventsPath)
	if err != nil {
		return cell, err
	}
	events, err := telemetry.ReadEvents(f)
	f.Close()
	if err != nil {
		return cell, err
	}
	cell.Summary = telemetry.Summarize(events)
	return cell, nil
}

// driveOpenLoop fires requests at the target rate for the window without
// waiting for responses (each request runs in its own goroutine, up to
// maxInflight). An open loop is the point: when the server stalls under a
// GC pause, requests keep arriving and the queueing delay lands in the
// recorded spans, exactly as a production client population would
// experience it. A closed loop would politely stop sending and hide the
// pause.
func driveOpenLoop(cell *ServingCell, do DoFunc, rate int, window time.Duration, maxInflight int) {
	interval := time.Second / time.Duration(rate)
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	var completed, errs atomic.Uint64
	rng := uint64(0x9e3779b97f4a7d0b)
	start := time.Now()
	deadline := start.Add(window)
	next := start
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
		}
		next = next.Add(interval)

		// Deterministic op mix: reads dominate (the _209_db profile), with
		// steady session churn and a trickle of writes.
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		roll := (rng * 0x2545F4914F6CDD1D) >> 33
		var op minidb.Op
		switch {
		case roll%20 < 12:
			op = minidb.OpFind
		case roll%20 < 13:
			op = minidb.OpScan
		case roll%20 < 15:
			op = minidb.OpAdd
		case roll%20 < 17:
			op = minidb.OpRemove
		default:
			op = minidb.OpSession
		}
		key := int64(roll % 16384)

		select {
		case sem <- struct{}{}:
			cell.Sent++
			wg.Add(1)
			go func(op minidb.Op, key int64) {
				defer wg.Done()
				if err := do(op, key); err != nil {
					errs.Add(1)
				} else {
					completed.Add(1)
				}
				<-sem
			}(op, key)
		default:
			cell.Dropped++
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	cell.Completed = completed.Load()
	cell.Errors = errs.Load()
	cell.AchievedRPS = float64(cell.Completed) / elapsed.Seconds()
}

// FormatServingReport renders the sweep: one block per cell (throughput line
// plus the full gcmon-style summary of its stream).
func FormatServingReport(r ServingReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving sweep: minidb server, open-loop, %d workers, %d-word buffers, %v per cell\n",
		r.Config.Workers, r.Config.AllocBufWords, r.Config.Duration)
	fmt.Fprintf(&b, "collectors: %s   rates: %v rps   leakcache=%v assert=%v\n",
		strings.Join(r.Config.Collectors, ", "), r.Config.Rates, r.Config.LeakCache, r.Config.Assert)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "\n== config=%s target=%d rps ==\n", c.Collector, c.TargetRPS)
		fmt.Fprintf(&b, "sent %d, completed %d, errors %d, dropped %d, achieved %.1f rps\n",
			c.Sent, c.Completed, c.Errors, c.Dropped, c.AchievedRPS)
		b.WriteString(c.Summary.Format())
		fmt.Fprintf(&b, "events: %s\n", c.EventsPath)
	}
	return b.String()
}
