package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Benchmark-side tracing: spans recorded around every call the benchmark
// makes into a layer, kept in memory and written out when the run ends. The
// hierarchy is workload -> op -> layer call; after the window each GC phase
// from the program's telemetry stream is attached to the op whose interval
// contains it, so an op's self time is its duration minus the pauses inside.

// spanName indexes spanNames.
type spanName uint8

const (
	spOp spanName = iota
	spJBBNewOrder
	spJBBPayment
	spJBBDelivery
	spDBRemove
	spDBAdd
	spRegion
	spAssertDead
	spCollect
	spCheck
	spDoFind
	spDoScan
	spDoAdd
	spDoRemove
	spDoSession
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op",
	"jbb.neworder", "jbb.payment", "jbb.delivery",
	"minidb.remove", "minidb.add", "core.region", "core.assert_dead",
	"gc.collect", "report.check",
	"minidb.do_find", "minidb.do_scan", "minidb.do_add", "minidb.do_remove", "minidb.do_session",
}

// span is one recorded interval. parent is the index of the enclosing op
// span in the same client's buffer, or -1 for the workload root.
type span struct {
	name       spanName
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// maxClientSpans bounds one client's span buffer (24 B each). jbb_batch
// makes 210 layer calls per op, so an uncapped traced window would hold
// millions; past the cap a call still feeds the per-name totals and is
// counted in dropped, only its span is not kept.
const maxClientSpans = 1 << 19

// clientTrace is one client goroutine's span buffer and per-name totals. A
// nil *clientTrace is the untraced run: every method is a no-op that does
// not touch the clock.
type clientTrace struct {
	epoch   time.Time
	spans   []span
	cur     int32 // index of the open op span, -1 outside an op or past the cap
	opStart int64
	count   [numSpanNames]uint64
	total   [numSpanNames]int64
	dropped uint64
}

func newClientTrace(epoch time.Time) *clientTrace {
	return &clientTrace{epoch: epoch, spans: make([]span, 0, maxClientSpans), cur: -1}
}

// now returns the tracer clock, or 0 on an untraced run.
func (t *clientTrace) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// beginOp opens an op span; layer calls recorded until endOp are its
// children.
func (t *clientTrace) beginOp() {
	if t == nil {
		return
	}
	t.cur = -1
	t.opStart = t.now()
	if len(t.spans) < maxClientSpans {
		t.cur = int32(len(t.spans))
		t.spans = append(t.spans, span{name: spOp, parent: -1, start: t.opStart})
	} else {
		t.dropped++
	}
}

// endOp closes the open op span, renaming it when the op is itself one
// layer call (a Server.Do request).
func (t *clientTrace) endOp(name spanName) {
	if t == nil {
		return
	}
	end := t.now()
	t.count[name]++
	t.total[name] += end - t.opStart
	if t.cur >= 0 {
		t.spans[t.cur].end = end
		t.spans[t.cur].name = name
	}
	t.cur = -1
}

// add records one layer call that started at start (from now) and has just
// returned.
func (t *clientTrace) add(name spanName, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.count[name]++
	t.total[name] += end - start
	if len(t.spans) < maxClientSpans {
		t.spans = append(t.spans, span{name: name, parent: t.cur, start: start, end: end})
	} else {
		t.dropped++
	}
}

// meanMicros is the mean duration of name's calls in microseconds.
func (t *clientTrace) meanMicros(name spanName) float64 {
	if t == nil || t.count[name] == 0 {
		return 0
	}
	return float64(t.total[name]) / float64(t.count[name]) / 1e3
}

// phaseSpan is one GC phase from the program's telemetry stream, on the
// tracer's clock.
type phaseSpan struct {
	phase      string
	start, end int64
}

// traceLog is a finished traced window: every client's spans plus the GC
// phases that fell inside it.
type traceLog struct {
	workload   string
	start, end int64
	clients    []*clientTrace
	phases     []phaseSpan
}

// containingOp returns the client and span index of an op whose interval
// contains [start, end], or (-1, -1). Op spans are in start order within a
// client, so the candidate is the last op starting at or before start.
func (l *traceLog) containingOp(start, end int64) (int, int) {
	for c, t := range l.clients {
		i := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].start > start })
		for i--; i >= 0; i-- {
			s := t.spans[i]
			if s.parent == -1 { // an op span
				if s.start <= start && end <= s.end {
					return c, i
				}
				break
			}
		}
	}
	return -1, -1
}

// write emits the log as NDJSON, one span per line: id, parent, name,
// start_ns, end_ns. Span 0 is the workload; ids are dense.
func (l *traceLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	line := func(id, parent int, name string, start, end int64) {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			id, parent, name, start, end)
	}
	line(0, -1, l.workload, l.start, l.end)
	base := make([]int, len(l.clients)) // id of each client's span 0
	next := 1
	for c, t := range l.clients {
		base[c] = next
		for i, s := range t.spans {
			parent := 0
			if s.parent >= 0 {
				parent = base[c] + int(s.parent)
			}
			line(base[c]+i, parent, spanNames[s.name], s.start, s.end)
		}
		next += len(t.spans)
	}
	for _, p := range l.phases {
		parent := 0
		if c, i := l.containingOp(p.start, p.end); c >= 0 {
			parent = base[c] + i
		}
		line(next, parent, "gc."+p.phase, p.start, p.end)
		next++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
