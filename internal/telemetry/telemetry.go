// Package telemetry is the runtime's observability subsystem: a
// fixed-size, allocation-free event stream the collector, tracer, sweeper
// and allocator emit into, and one aggregation of that stream behind every
// view of it.
//
// The paper's pitch is that assertion checking piggybacks on collection at
// a few percent overhead; this package is how a deployment *observes* that
// overhead in flight rather than taking it on faith. Design constraints,
// in order:
//
//   - Zero allocation on the emit path. Events are fixed-size structs
//     written into a preallocated ring; the optional NDJSON sink encodes
//     into a reusable scratch buffer with strconv appends, never
//     fmt/encoding-json. A disabled recorder (nil *Recorder) costs one
//     branch per emit point — every method is nil-safe — so the published
//     figures are byte-identical with telemetry off.
//
//   - One aggregation. Every emitted event is named as the FileEvent the
//     NDJSON stream carries and folded into the recorder's live Summary by
//     the same function Summarize runs over a decoded stream, so the live
//     view (Metrics, /metrics) and the offline one (gcmon) agree by
//     construction. The live fold keeps log2 histograms, the offline one
//     every duration; both read quantiles by one nearest-rank rule.
//
//   - Bounded memory. The ring holds the last RingSize events; older ones
//     are overwritten (counted in Dropped). Histograms are fixed arrays of
//     log2 buckets.
//
//   - One lock. Emit points already run under the runtime lock or inside
//     stop-the-world pauses; the recorder's own mutex exists only so
//     Metrics() can snapshot concurrently with a mutator-side carve/retire
//     or request. It is a leaf lock: nothing is acquired under it.
//
// Exports: Metrics() returns a point-in-time Summary; WritePrometheus
// renders it in Prometheus text exposition format; the NDJSON stream is
// consumed by cmd/gcmon and ReadEvents.
package telemetry

import (
	"io"
	"sync"
	"time"
)

// Phase identifies one collector phase for events and histograms.
type Phase uint8

const (
	// PhaseMark is a stop-the-world mark (Base or Infrastructure).
	PhaseMark Phase = iota
	// PhaseOwnership is the owner-first pre-phase of assert-ownedby.
	PhaseOwnership
	// PhaseSweep is one sweep pass over the whole heap.
	PhaseSweep
	// PhaseIncRoots is the snapshot pause that starts an incremental cycle.
	PhaseIncRoots
	// PhaseIncSlice is one bounded incremental mark slice.
	PhaseIncSlice
	// PhaseIncBarrier is one snapshot-at-beginning barrier scan.
	PhaseIncBarrier
	// PhaseIncFinish is the completion pause of an incremental cycle.
	PhaseIncFinish
	// PhaseAssist is one mutator assist: bounded mark work a thread
	// performs at an allocation because it outran the concurrent tracer.
	PhaseAssist

	numPhases
)

// phaseNames are the wire and metric names; indexes match the constants.
var phaseNames = [numPhases]string{
	"mark", "ownership", "sweep",
	"inc_roots", "inc_slice", "inc_barrier", "inc_finish",
	"assist",
}

// String returns the phase's wire name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// EventKind identifies the kind of one ring/NDJSON event.
type EventKind uint8

const (
	// KindCycleBegin marks the start of a collection (stop-the-world or
	// incremental cycle).
	KindCycleBegin EventKind = iota
	// KindPhaseBegin and KindPhaseEnd bracket one phase; the end event
	// carries the duration.
	KindPhaseBegin
	KindPhaseEnd
	// KindPause is one stop-the-world interval.
	KindPause
	// KindCarve is one allocation-buffer carve (Value = words carved).
	KindCarve
	// KindRetire is one buffer retirement (Value = used words, Value2 =
	// tail words returned to the free lists).
	KindRetire
	// KindViolation is one assertion violation (Value = report.Kind code).
	KindViolation
	// KindTrigger is one concurrent-pacer cycle trigger (Value = used
	// words at the trigger, Value2 = the trigger threshold in words).
	KindTrigger
	// KindAssist is one mutator assist (Value = duration in nanoseconds,
	// Value2 = mark slices performed).
	KindAssist
	// KindRequest is one served application request (Value = duration in
	// nanoseconds, Value2 = the interned op code registered via RequestOp).
	// This is the serving-workload emit point: request latency lands in the
	// same stream and histograms as GC phases, so tail latency and pauses
	// can be correlated line for line.
	KindRequest

	numKinds
)

var kindNames = [numKinds]string{
	"cycle_begin", "phase_begin", "phase_end", "pause", "carve", "retire", "violation",
	"trigger", "assist", "request",
}

// String returns the kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one fixed-size telemetry record. The meaning of Value/Value2
// depends on Kind (see the EventKind constants).
type Event struct {
	Seq     uint64
	AtNanos int64 // nanoseconds since the recorder was created
	Kind    EventKind
	Phase   Phase
	Cycle   uint64
	Value   uint64
	Value2  uint64
}

// Config configures a Recorder (core.Config.Telemetry carries one).
type Config struct {
	// RingSize is the number of events retained in memory; 0 selects
	// DefaultRingSize.
	RingSize int
	// Sink, when non-nil, receives every event as one NDJSON line. Write
	// errors are counted (Summary.SinkErrors), never propagated: telemetry
	// must not take the mutator down with it.
	Sink io.Writer
}

// DefaultRingSize is the event ring capacity when Config leaves it zero.
const DefaultRingSize = 4096

// Recorder is the telemetry hub one Runtime emits into. The zero of
// *Recorder (nil) is a valid, disabled recorder: every method no-ops.
type Recorder struct {
	mu    sync.Mutex
	start time.Time

	ring []Event
	seq  uint64 // events ever emitted; ring slot = (seq-1) % len(ring)

	cycle uint64 // current collection cycle (CycleBegin increments)

	// Request op names, interned up front (RequestOp) so the per-request
	// emit is a slice index, not a map lookup. A code is an index.
	reqNames []string

	live fold // every event so far, aggregated as Summarize would

	sinkErrs uint64
	sink     io.Writer
	scratch  []byte // reusable NDJSON line buffer
}

// New creates a recorder. The returned recorder is ready to emit; attach
// it to a runtime via core.Config.Telemetry.
func New(cfg Config) *Recorder {
	size := cfg.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Recorder{
		start:    time.Now(),
		ring:     make([]Event, size),
		reqNames: make([]string, 0, MaxRequestOps),
		live:     newFold(false),
		sink:     cfg.Sink,
		scratch:  make([]byte, 0, 160),
	}
}

// emit stamps e with the next sequence number, the clock and the current
// cycle, writes it to the ring and the sink, and folds it into the live
// Summary. label is a violation's kind name. An event naming an
// unregistered request op is dropped. Caller holds r.mu.
func (r *Recorder) emit(e Event, label string) {
	fe := FileEvent{Ev: e.Kind.String(), Cycle: r.cycle}
	switch e.Kind {
	case KindPhaseBegin:
		fe.Phase = e.Phase.String()
	case KindPhaseEnd:
		fe.Phase, fe.DurNanos = e.Phase.String(), e.Value
	case KindPause:
		fe.DurNanos = e.Value
	case KindCarve:
		fe.Words = e.Value
	case KindRetire:
		fe.Words, fe.Tail = e.Value, e.Value2
	case KindViolation:
		fe.Kind = named(label)
	case KindTrigger:
		fe.Used, fe.Trigger = e.Value, e.Value2
	case KindAssist:
		fe.DurNanos, fe.Slices = e.Value, e.Value2
	case KindRequest:
		if e.Value2 >= uint64(len(r.reqNames)) {
			return
		}
		fe.Op, fe.DurNanos = named(r.reqNames[e.Value2]), e.Value
	}
	r.seq++
	e.Seq, e.Cycle, e.AtNanos = r.seq, r.cycle, int64(time.Since(r.start))
	fe.Seq, fe.Nanos = e.Seq, e.AtNanos
	r.ring[(r.seq-1)%uint64(len(r.ring))] = e
	r.live.add(&fe)
	if r.sink != nil {
		r.scratch = appendEventJSON(r.scratch[:0], e.Kind, &fe)
		if _, err := r.sink.Write(r.scratch); err != nil {
			r.sinkErrs++
		}
	}
}

// named stands "unknown" in for an empty violation or op name, so every
// such line names one.
func named(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// record emits one event under the recorder lock; a no-op on a nil
// recorder.
func (r *Recorder) record(e Event, label string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.emit(e, label)
	r.mu.Unlock()
}

// CycleBegin records the start of one collection; subsequent events carry
// the new cycle number.
func (r *Recorder) CycleBegin() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cycle++
	r.emit(Event{Kind: KindCycleBegin}, "")
	r.mu.Unlock()
}

// Begin emits a phase-begin event and returns the start time for the
// matching End call. On a nil recorder it returns the zero time without
// touching the clock.
func (r *Recorder) Begin(p Phase) time.Time {
	if r == nil {
		return time.Time{}
	}
	r.record(Event{Kind: KindPhaseBegin, Phase: p}, "")
	return time.Now()
}

// End emits the phase-end event matching a Begin. On a nil recorder it
// does not touch the clock.
func (r *Recorder) End(p Phase, start time.Time) {
	if r == nil {
		return
	}
	r.record(Event{Kind: KindPhaseEnd, Phase: p, Value: uint64(time.Since(start))}, "")
}

// Span emits a begin/end pair for a phase whose duration the caller
// already measured (the collector times its incremental intervals for
// pause accounting regardless of telemetry).
func (r *Recorder) Span(p Phase, d time.Duration) {
	r.record(Event{Kind: KindPhaseBegin, Phase: p}, "")
	r.record(Event{Kind: KindPhaseEnd, Phase: p, Value: uint64(d)}, "")
}

// Pause records one stop-the-world interval.
func (r *Recorder) Pause(d time.Duration) {
	r.record(Event{Kind: KindPause, Value: uint64(d)}, "")
}

// Carve records one allocation-buffer carve of `words` words.
func (r *Recorder) Carve(words uint64) {
	r.record(Event{Kind: KindCarve, Value: words}, "")
}

// Retire records one buffer retirement: used words kept as objects, tail
// words returned to the free lists.
func (r *Recorder) Retire(used, tail uint64) {
	r.record(Event{Kind: KindRetire, Value: used, Value2: tail}, "")
}

// Trigger records one concurrent-pacer cycle trigger: the heap had
// usedWords allocated when the triggerWords threshold tripped.
func (r *Recorder) Trigger(usedWords, triggerWords uint64) {
	r.record(Event{Kind: KindTrigger, Value: usedWords, Value2: triggerWords}, "")
}

// Assist records one mutator assist of d covering `slices` mark slices.
func (r *Recorder) Assist(d time.Duration, slices uint64) {
	r.record(Event{Kind: KindAssist, Value: uint64(d), Value2: slices}, "")
}

// Violation records one assertion violation. code is the report.Kind
// value (kept in the ring event); name its String(), which the stream and
// the per-kind counts carry.
func (r *Recorder) Violation(code uint8, name string) {
	r.record(Event{Kind: KindViolation, Value: uint64(code)}, name)
}

// MaxRequestOps is the number of distinct request op names a recorder can
// intern. Serving workloads have a handful of endpoint names; the fixed
// table keeps the recorder allocation-free and the emit path map-free.
const MaxRequestOps = 32

// RequestOp interns a request op name and returns its code for Request.
// Registering the same name twice returns the same code. Names must be
// plain identifiers at heart — anything is accepted, but the NDJSON
// encoder escapes what it must, so exotic names cost allocation-free
// escaping on every emit. Returns -1 when the table is full (or on a nil
// recorder); Request ignores a negative code, so a producer with too many
// ops degrades to not recording the excess rather than failing.
func (r *Recorder) RequestOp(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.reqNames {
		if n == name {
			return i
		}
	}
	if len(r.reqNames) >= MaxRequestOps {
		return -1
	}
	r.reqNames = append(r.reqNames, name)
	return len(r.reqNames) - 1
}

// Request records one served request of duration d under an op code from
// RequestOp. A negative or unregistered code is ignored.
func (r *Recorder) Request(op int, d time.Duration) {
	if op >= 0 {
		r.record(Event{Kind: KindRequest, Value: uint64(d), Value2: uint64(op)}, "")
	}
}

// Events returns the retained events, oldest first. Intended for tests and
// debugging tools; the NDJSON sink is the production stream.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.seq
	size := uint64(len(r.ring))
	if n > size {
		n = size
	}
	out := make([]Event, 0, n)
	first := r.seq - n // count of events fallen off the ring
	for i := uint64(0); i < n; i++ {
		out = append(out, r.ring[(first+i)%size])
	}
	return out
}

// Metrics returns the live Summary: the fold of every event emitted so
// far, plus the two facts only the recorder has, Dropped and SinkErrors.
// Safe on a nil recorder (zero Summary) and concurrently with emitters.
func (r *Recorder) Metrics() Summary {
	if r == nil {
		return Summary{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.live.summary()
	s.SinkErrors = r.sinkErrs
	if size := uint64(len(r.ring)); r.seq > size {
		s.Dropped = r.seq - size
	}
	return s
}
