package main

import (
	"bytes"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/minidb"
	"repro/internal/telemetry"
)

// The traced run: the workload once more with the program's telemetry
// streaming into memory and benchmark-side spans around every layer call,
// for the per-layer metrics. An untraced window of the same length runs
// first on a fresh instance; the throughput lost between the two is
// telemetry.overhead_frac. The isolated-call and cycle-replay metrics
// (layers.go) do not depend on the workload and are measured in every
// traced run, so each run reports every per-layer metric.

// tracedShare is the traced (and reference) window as a share of the
// untraced run's: per-layer numbers are totals and medians over many
// thousands of calls and need less time than a p99 does.
const tracedShare = 0.3

// memSink is the in-memory telemetry sink. The recorder serialises its own
// writes, but the pacer goroutine can still be emitting while the benchmark
// reads, so the sink has its own lock.
type memSink struct {
	mu  sync.Mutex
	buf []byte
}

func (s *memSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	s.mu.Unlock()
	return len(p), nil
}

func (s *memSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// from returns the bytes written since offset off. Written bytes never
// change, so the slice stays valid while the sink keeps growing.
func (s *memSink) from(off int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf[off:len(s.buf):len(s.buf)]
}

// telemetryRing is large enough that short runs keep every event in the
// ring as well; telemetry.dropped counts what a long run pushed out of it
// (the sink still has them all).
const telemetryRing = 1 << 16

func runTraced(def *workloadDef, o options) (result, error) {
	o.seconds *= tracedShare
	if o.ops > 0 {
		if o.ops = int(float64(o.ops) * tracedShare); o.ops < 1 {
			o.ops = 1
		}
	}
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}

	// Reference window, telemetry off.
	inst, _ := setUp(def, o, nil)
	def.condition(inst, o)
	rec := sampleBuffers(def, o)
	drive(def, inst, rec, nil, o.ops, o.window())
	untraced := summarize(rec).opsPerSec
	if err := inst.Close(); err != nil {
		return result{}, err
	}

	// Traced window.
	sink := &memSink{buf: make([]byte, 0, 1<<24)}
	inst, _ = setUp(def, o, &telemetry.Config{RingSize: telemetryRing, Sink: sink})
	def.condition(inst, o)
	rt := inst.Runtime()
	for _, s := range rec {
		s.reset()
	}

	// Align the two clocks: the sync request is the first event of the
	// window, emitted the moment the tracer's epoch is taken.
	tele := rt.Telemetry()
	syncOp := tele.RequestOp("bench.sync")
	mark := sink.len()
	epoch := time.Now()
	tele.Request(syncOp, 0)
	traces := make([]*clientTrace, def.Clients)
	for c := range traces {
		traces[c] = newClientTrace(epoch)
	}

	before, srvBefore := rt.Stats(), serverStats(inst)
	drive(def, inst, rec, traces, o.ops, o.window())
	end := int64(time.Since(epoch))
	after, srvAfter := rt.Stats(), serverStats(inst)

	checkErr := inst.Check()
	events, err := telemetry.ReadEvents(bytes.NewReader(sink.from(mark)))
	if err == nil && len(events) == 0 {
		err = errors.New("bench: the telemetry sink holds no event of the traced window")
	}
	if err != nil {
		inst.Close()
		return result{}, err
	}

	st := summarize(rec)
	res := result{Attempted: st.attempted, Failed: st.failed}
	m["telemetry.overhead_frac"] = 1 - st.opsPerSec/untraced
	m["telemetry.events"] = float64(len(events))
	m["telemetry.dropped"] = float64(tele.Metrics().Dropped)

	collectorLayers(m, events, before, after)
	m["report.violations"] = float64(after.Asserts.Violations - before.Asserts.Violations)
	m["minidb.served"] = float64(srvAfter.Total() - srvBefore.Total())
	m["minidb.failed"] = float64(srvAfter.Failed - srvBefore.Failed)
	m["minidb.expired"] = float64(srvAfter.Expired - srvBefore.Expired)
	for name, kind := range map[string]spanName{
		"minidb.do_find_p50_us":    spDoFind,
		"minidb.do_add_p50_us":     spDoAdd,
		"minidb.do_remove_p50_us":  spDoRemove,
		"minidb.do_session_p50_us": spDoSession,
	} {
		m[name] = percentile(merged(rec, kind), 0.5) / 1e3
	}
	t0 := traces[0]
	m["jbb.neworder_us"] = t0.meanMicros(spJBBNewOrder)
	m["jbb.payment_us"] = t0.meanMicros(spJBBPayment)
	m["jbb.delivery_us"] = t0.meanMicros(spJBBDelivery)

	// The Database methods behind the server, called on this goroutine
	// with the server idle: what is left of a request once queue and mutex
	// are taken away.
	switch w := inst.(type) {
	case *serve:
		directCalls(m, o, rt, w.srv.Database(), w.shape.entries+serveClients*w.clients[0].adds)
		m["minidb.queue_lock_us"] = m["minidb.do_find_p50_us"] - m["minidb.direct_find_us"]
	case *armedGC:
		directCalls(m, o, rt, w.db, armedEntries+w.adds)
		m["minidb.direct_remove_us"] = t0.meanMicros(spDBRemove)
		m["minidb.direct_add_us"] = t0.meanMicros(spDBAdd)
	}

	if o.traceOut != "" {
		log := &traceLog{workload: def.Name, end: end, clients: traces}
		origin := events[0].Nanos // the sync request, at the tracer's epoch
		for _, e := range events {
			if e.Ev == "phase_end" {
				at := e.Nanos - origin
				log.phases = append(log.phases, phaseSpan{e.Phase, at - int64(e.DurNanos), at})
			}
		}
		if err := log.write(o.traceOut); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	if err := inst.Close(); err != nil && checkErr == nil {
		checkErr = err
	}

	isolatedCalls(m, o)
	cycleReplays(m, o)

	res.Correct = checkErr == nil && res.Failed == 0
	res.Metrics = values(perLayer, m)
	return res, checkErr
}

func serverStats(inst instance) minidb.ServerStats {
	if w, ok := inst.(*serve); ok {
		return w.srv.Stats()
	}
	return minidb.ServerStats{}
}

// collectorLayers fills the gc, trace, assertions, sidetab and core
// buffer/pacer metrics from the window's telemetry events and the runtime's
// counters on either side of it.
func collectorLayers(m map[string]float64, events []telemetry.FileEvent, before, after core.Snapshot) {
	sum := telemetry.Summarize(events)
	phaseMS := func(names ...string) float64 {
		var ns uint64
		for _, p := range sum.Phases {
			for _, name := range names {
				if p.Phase == name {
					ns += p.TotalNanos
				}
			}
		}
		return float64(ns) / 1e6
	}
	m["gc.pause_total_ms"] = float64(sum.Pause.TotalNanos) / 1e6
	m["gc.pause_p50_us"] = float64(sum.Pause.P50Nanos) / 1e3
	m["gc.pause_max_us"] = float64(sum.Pause.MaxNanos) / 1e3
	m["gc.mark_ms"] = phaseMS("mark")
	m["gc.ownership_ms"] = phaseMS("ownership")
	m["gc.sweep_ms"] = phaseMS("sweep")
	m["gc.inc_slice_ms"] = phaseMS("inc_slice", "assist")
	if sum.CarveWords > 0 {
		m["core.buffer_tail_frac"] = float64(sum.TailWords) / float64(sum.CarveWords)
	}

	a, b := after.GC, before.GC
	cycles := float64(a.Collections - b.Collections)
	marked := float64(a.MarkedWords - b.MarkedWords)
	m["gc.collections"] = cycles
	if cycles > 0 {
		m["gc.marked_words_per_cycle"] = marked / cycles
		m["gc.freed_words_per_cycle"] = float64(a.FreedWords-b.FreedWords) / cycles
		m["trace.refs_scanned_per_cycle"] = float64(a.Trace.RefsScanned-b.Trace.RefsScanned) / cycles
		m["trace.ownees_checked_per_cycle"] = float64(a.Trace.OwneesChecked-b.Trace.OwneesChecked) / cycles
		m["trace.dead_hits_per_cycle"] = float64(a.Trace.DeadHits-b.Trace.DeadHits) / cycles
		m["assertions.violations_per_cycle"] = float64(after.Asserts.Violations-before.Asserts.Violations) / cycles
	}
	if markMS := m["gc.mark_ms"] + m["gc.ownership_ms"] + m["gc.inc_slice_ms"]; markMS > 0 {
		m["gc.mark_mwords_per_s"] = marked / 1e6 / (markMS / 1e3)
	}
	m["assertions.ownees_live"] = float64(after.Asserts.OwneesLive)
	m["sidetab.chunk_bytes"] = float64(a.SideTabChunkBytes)
	m["core.buffer_carves"] = float64(after.Heap.BufferCarves - before.Heap.BufferCarves)
	m["core.pacer_triggers"] = float64(after.Pacer.Triggers - before.Pacer.Triggers)
	m["core.pacer_assists"] = float64(after.Pacer.Assists - before.Pacer.Assists)
	m["core.pacer_forced_finishes"] = float64(after.Pacer.ForcedFinishes - before.Pacer.ForcedFinishes)
}
