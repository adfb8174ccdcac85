package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// workloadDef is one closed-loop load. All four are closed loops — each
// client issues its next op only when the previous one returned — because an
// open loop at this box's service times measures time.Sleep and the
// scheduler, not the system (bench/README.md, "Why closed loop").
type workloadDef struct {
	Name string
	Why  string
	// Clients is the number of goroutines driving the instance.
	Clients int
	// WarmOps is the warm-up length per client at scale 1, about a tenth of
	// a 20 s window at seed speed; warm-up is part of setup_s.
	WarmOps int
	// OpsPerSec is the seed's throughput, used only to size the latency
	// sample buffers before the host-memory baseline is read.
	OpsPerSec int
	// Build constructs the runtime, populates it and returns the instance.
	// tele non-nil switches the program's own telemetry on.
	Build func(seed uint64, tele *telemetry.Config) instance
	// Condition, when set, brings the instance that will be measured to its
	// steady state. It is the benchmark's own preparation, not the
	// program's set-up, so it runs outside setup_s and outside the window.
	Condition func(inst instance, o options)
}

// instance is one built workload: a runtime, whatever runs on it, and the
// per-client op streams derived from the seed.
type instance interface {
	// Op performs client c's next operation and returns the latency the
	// workload defines for it, the op's kind (the span name it is filed
	// under) and whether its outputs were right. Calls for one c come from
	// one goroutine.
	Op(c int, t *clientTrace) (lat time.Duration, kind spanName, ok bool)
	// Check verifies the outputs that can only be judged at the end.
	Check() error
	// Close stops everything the instance started: the server's workers,
	// then the runtime's pacer goroutine.
	Close() error
	Runtime() *core.Runtime
}

var workloads = []*workloadDef{
	{
		Name:      "jbb_batch",
		Why:       "one mutator thread on stop-the-world MarkSweep: accessors and the allocator do ~94% of the work, collections are small and allocation-triggered",
		Clients:   1,
		WarmOps:   1000,
		OpsPerSec: 1000,
		Build:     buildJBBBatch,
	},
	{
		Name:      "armed_gc",
		Why:       "a forced full collection per op over 15000 owned entries and 64 asserted-dead leaks: the collector and assertion checks are ~73% of wall time, accessors almost none",
		Clients:   1,
		WarmOps:   250,
		OpsPerSec: 250,
		Build: func(seed uint64, tele *telemetry.Config) instance {
			return buildArmedGC(seed, tele, core.Infrastructure, true)
		},
		Condition: func(inst instance, o options) { inst.(*armedGC).age(o.scaled(armedAgeing)) },
	},
	{
		Name:      "serve_read",
		Why:       "two clients on a 2-worker server, 90% finds, heap too large to collect: queue, server mutex and the linear Find do all the work and gc none, so a collector change predicts no change here",
		Clients:   2,
		WarmOps:   3000,
		OpsPerSec: 6000,
		Build:     buildServeRead,
	},
	{
		Name:      "serve_churn",
		Why:       "the same server under the concurrent collector in a small heap, 60% session allocations: allocation, write barrier, buffer carve and pacer cycles instead of locked reads",
		Clients:   2,
		WarmOps:   20000,
		OpsPerSec: 40000,
		Build:     buildServeChurn,
	},
}

// condition applies the workload's Condition, if it has one.
func (def *workloadDef) condition(inst instance, o options) {
	if def.Condition != nil {
		def.Condition(inst, o)
	}
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// rng is xorshift64*: the benchmark's only source of choice, so a seed fixes
// every input on every Go version. The libraries keep their own generators.
type rng uint64

func newRNG(seed, stream uint64) rng {
	// splitmix64 step so that nearby seeds and streams diverge at once.
	z := seed*0x9e3779b97f4a7c15 + (stream+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x2545f4914f6cdd1d
	}
	return rng(z)
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

func (r *rng) intn(n int) int { return int((r.next() >> 33) % uint64(n)) }

// A window is cut into windowSlices equal slices and only the keptSlices with
// the highest throughput are reported on. This box is a shared VM: what
// disturbs a run from outside only ever slows it, in bursts of a fraction of
// a second up to minutes, and over ten runs of one binary the whole-window
// medians spread by 10-18% while the fastest quarter spreads by about half
// that. The price is a blind spot — a stall of the program's own that lasts
// longer than a slice and hits fewer than three slices in four is discarded
// with the interference — so the whole-window figures are printed beside the
// reported ones.
const (
	windowSlices = 40
	keptSlices   = windowSlices / 4
)

// samples is one client's per-op record: latency in ns (saturating at ~4.29
// s), the op's kind, and where each slice of the window begins.
type samples struct {
	lat   []uint32
	kind  []spanName
	bad   int
	cut   []int           // cut[k] is the index of the first op of slice k
	cutAt []time.Duration // and when, since the window opened, that op began
	end   time.Duration   // when the client's last op returned
}

func newSamples(capacity int) *samples {
	return &samples{lat: make([]uint32, 0, capacity), kind: make([]spanName, 0, capacity)}
}

func (s *samples) reset() {
	s.lat, s.kind, s.bad = s.lat[:0], s.kind[:0], 0
	s.cut, s.cutAt = s.cut[:0], s.cutAt[:0]
}

// enter notes that the next op belongs to the given slice.
func (s *samples) enter(slice int, now time.Duration) {
	for len(s.cut) <= slice {
		s.cut = append(s.cut, len(s.lat))
		s.cutAt = append(s.cutAt, now)
	}
}

func (s *samples) add(lat time.Duration, kind spanName, ok bool) {
	ns := uint32(1<<32 - 1)
	if lat < time.Duration(ns) {
		ns = uint32(lat)
	}
	s.lat = append(s.lat, ns)
	s.kind = append(s.kind, kind)
	if !ok {
		s.bad++
	}
}

// slice returns slice k's latencies and how long the slice lasted.
func (s *samples) slice(k int) ([]uint32, time.Duration) {
	if k >= len(s.cut) {
		return nil, 0
	}
	hi, until := len(s.lat), s.end
	if k+1 < len(s.cut) {
		hi, until = s.cut[k+1], s.cutAt[k+1]
	}
	return s.lat[s.cut[k]:hi], until - s.cutAt[k]
}

// drive runs every client's closed loop against inst: ops > 0 runs exactly
// that many ops per client, otherwise each client runs until window has
// elapsed. rec and traces may be nil (warm-up, untraced run).
func drive(def *workloadDef, inst instance, rec []*samples, traces []*clientTrace, ops int, window time.Duration) {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < def.Clients; c++ {
		var s *samples
		if rec != nil {
			s = rec[c]
		}
		var t *clientTrace
		if traces != nil {
			t = traces[c]
		}
		wg.Add(1)
		go func(c int, s *samples, t *clientTrace) {
			defer wg.Done()
			for i := 0; ; i++ {
				now := time.Since(start)
				slice := 0
				if ops > 0 {
					if i >= ops {
						break
					}
					slice = i * windowSlices / ops
				} else {
					if now >= window {
						break
					}
					slice = int(now * windowSlices / window)
				}
				if s != nil {
					s.enter(slice, now)
				}
				t.beginOp()
				lat, kind, ok := inst.Op(c, t)
				t.endOp(kind)
				if s != nil {
					s.add(lat, kind, ok)
				}
			}
			if s != nil {
				s.end = time.Since(start)
			}
		}(c, s, t)
	}
	wg.Wait()
}

// windowStats is what a window measured: throughput and latency percentiles
// (ns) over the ops of its fastest slices and over all of it, and the op
// counts.
type windowStats struct {
	opsPerSec, p50, p99                float64
	wholeOpsPerSec, wholeP50, wholeP99 float64
	attempted, failed                  int
}

func summarize(rec []*samples) windowStats {
	var st windowStats
	type sliceRate struct {
		k    int
		rate float64
	}
	var ranked []sliceRate
	for k := 0; k < windowSlices; k++ {
		rate := 0.0
		for _, s := range rec {
			if l, d := s.slice(k); len(l) > 0 && d > 0 {
				rate += float64(len(l)) / d.Seconds()
			}
		}
		if rate > 0 { // a window of only a few ops leaves slices empty
			ranked = append(ranked, sliceRate{k, rate})
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].rate > ranked[j].rate })
	if len(ranked) > keptSlices {
		ranked = ranked[:keptSlices]
	}
	var kept []uint32
	for _, sl := range ranked {
		st.opsPerSec += sl.rate / float64(len(ranked))
		for _, s := range rec {
			l, _ := s.slice(sl.k)
			kept = append(kept, l...)
		}
	}
	slices.Sort(kept)
	st.p50, st.p99 = percentile(kept, 0.50), percentile(kept, 0.99)

	all := merged(rec, spOp)
	st.wholeP50, st.wholeP99 = percentile(all, 0.50), percentile(all, 0.99)
	for _, s := range rec {
		st.attempted += len(s.lat)
		st.failed += s.bad
		if s.end > 0 {
			st.wholeOpsPerSec += float64(len(s.lat)) / s.end.Seconds()
		}
	}
	return st
}

// percentile returns the q-quantile of sorted by nearest rank.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// merged returns every client's latencies of the given kind (spOp = all),
// sorted.
func merged(rec []*samples, kind spanName) []uint32 {
	var out []uint32
	for _, s := range rec {
		for i, ns := range s.lat {
			if kind == spOp || s.kind[i] == kind {
				out = append(out, ns)
			}
		}
	}
	slices.Sort(out)
	return out
}

// must panics on a setup error: population runs on heaps sized to hold it,
// so an error here is a bug in the benchmark or the program, and the run
// cannot continue.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: setup failed: %v", err))
	}
}
