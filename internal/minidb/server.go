package minidb

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// Server promotes the minidb workload into a serving system: a fixed pool
// of worker goroutines, each owning its own (buffered) mutator thread,
// executes add/remove/find/scan requests against one shared Database plus
// a per-worker session cache. This is where GC pauses become request tail
// latency: a request's span covers queueing and service, so a collection
// that stalls the workers shows up in the request histograms — and in the
// NDJSON stream gcmon -follow summarizes live.
//
// Synchronization contract: the Database's structural state is guarded by
// s.mu (its operations are not internally synchronized — see AddOn), while
// session-cache churn runs on each worker's private thread and list with
// no server lock at all, so allocation-heavy traffic proceeds concurrently
// and contends only inside the runtime's own allocator.
//
// The session cache doubles as the injectable defect of the paper's
// Section 3.1: every expired session is asserted dead (the author
// "believed that an object that had been destroyed should be
// unreachable"), and with Config.LeakCache the server retains expired
// sessions in a shared cache list — exactly the retention bug assert-dead
// catches on the next collection.

// Op identifies one server operation.
type Op uint8

const (
	// OpFind looks up a key (the dominant read op).
	OpFind Op = iota
	// OpScan folds over every entry (a long read).
	OpScan
	// OpAdd inserts a fresh entry.
	OpAdd
	// OpRemove deletes a random entry (assert-dead site under DB config).
	OpRemove
	// OpSession allocates a session object into the per-worker session
	// cache, expiring the oldest past the cap — the LeakCache defect site.
	OpSession

	// NumOps is the number of server operations.
	NumOps
)

var opNames = [NumOps]string{"find", "scan", "add", "remove", "session"}

// String returns the op's wire/endpoint name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// OpByName resolves an endpoint name to its Op; ok is false for unknown
// names.
func OpByName(name string) (Op, bool) {
	for i, n := range opNames {
		if n == name {
			return Op(i), true
		}
	}
	return 0, false
}

// ServerConfig shapes a Server.
type ServerConfig struct {
	// DB configures the shared database (entry count, assertion arms, the
	// LeakCache defect).
	DB Config
	// Workers is the mutator worker-thread pool size (default 4).
	Workers int
	// QueueDepth bounds the request queue; a full queue blocks Do, which
	// is the open-loop harness's backpressure (default 16×Workers).
	QueueDepth int
	// SessionItems is the number of item strings allocated per session
	// (default 8) — the per-request allocation churn.
	SessionItems int
	// SessionCap is the number of live sessions retained per worker before
	// the oldest expires (default 64).
	SessionCap int
	// AssertDeadSessions arms assert-dead on every expired session. With
	// DB.LeakCache the expired session is also retained in the shared
	// session cache, so the assertion reports a violation on the next
	// collection — the injected defect, observable in gcmon -follow.
	AssertDeadSessions bool
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16 * c.Workers
	}
	if c.SessionItems == 0 {
		c.SessionItems = 8
	}
	if c.SessionCap == 0 {
		c.SessionCap = 64
	}
	return c
}

// Response is a request's result payload.
type Response struct {
	// Found is set by find.
	Found bool
	// Len is the database entry count after add/remove.
	Len int
	// Sum is scan's fold.
	Sum uint64
}

type result struct {
	resp Response
	err  error
}

type request struct {
	op    Op
	key   int64
	reply chan result
}

// worker is one serving goroutine and its mutator thread.
type worker struct {
	th       *core.Thread
	sessions *core.Global // per-worker session list; only this worker touches it
	nextID   int64
}

// ErrServerClosed is returned by Do after Close.
var ErrServerClosed = errors.New("minidb: server closed")

// Server is a running worker pool over one Database.
type Server struct {
	rt  *core.Runtime
	db  *Database
	cfg ServerConfig

	// Session class: items (ref array of strings), id.
	sessClass *core.Class
	sItems    uint16
	sID       uint16

	sessCache *core.Global // shared retained-session list (the LeakCache defect)

	mu   sync.Mutex // serializes structural Database mutations across workers
	reqs chan request

	sendMu sync.RWMutex // guards reqs against send-on-closed in Do vs Close
	closed bool

	wg      sync.WaitGroup
	workers []*worker

	opCodes [NumOps]int // telemetry request-op codes (-1 when telemetry is off)

	served  [NumOps]atomic.Uint64
	failed  atomic.Uint64
	expired atomic.Uint64
	leaked  atomic.Uint64
}

// NewServer builds the database and starts the worker pool on rt. The
// runtime outlives the server; call Close before Runtime.Close.
func NewServer(rt *core.Runtime, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		rt:   rt,
		db:   New(rt, cfg.DB),
		cfg:  cfg,
		reqs: make(chan request, cfg.QueueDepth),
	}
	s.sessClass = rt.DefineClass("Session",
		core.RefField("items"), core.DataField("id"))
	s.sItems = s.sessClass.MustFieldIndex("items")
	s.sID = s.sessClass.MustFieldIndex("id")
	s.sessCache = rt.AddGlobal("minidb.sessioncache")
	s.sessCache.Set(s.db.kit.NewList(rt.MainThread()))

	rec := rt.Telemetry()
	for op := Op(0); op < NumOps; op++ {
		s.opCodes[op] = rec.RequestOp(op.String())
	}

	for i := 0; i < cfg.Workers; i++ {
		// Create-then-start: the thread and its session list are built on
		// this goroutine per the NewThread contract, then handed to the
		// worker goroutine that will drive it.
		w := &worker{
			th:       rt.NewThread(fmt.Sprintf("minidbd-worker-%d", i)),
			sessions: rt.AddGlobal(fmt.Sprintf("minidb.sessions.%d", i)),
		}
		w.sessions.Set(s.db.kit.NewList(rt.MainThread()))
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go s.run(w)
	}
	return s
}

// Database returns the shared database (for test assertions and drivers).
func (s *Server) Database() *Database { return s.db }

// Runtime returns the runtime the server allocates on.
func (s *Server) Runtime() *core.Runtime { return s.rt }

// run is one worker's serve loop.
func (s *Server) run(w *worker) {
	defer s.wg.Done()
	for req := range s.reqs {
		req.reply <- s.serve(w, req)
	}
}

// withDB runs fn with the database lock held. The unlock is deferred
// because fn can panic (OutOfMemoryError, HaltError from the allocator) and
// serve's recover converts that into a request error — without the defer
// the mutex would stay locked and every later DB op would deadlock the
// pool.
func (s *Server) withDB(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// serve executes one request on w, converting panics into request errors so
// one doomed request cannot take the pool down. The runtime's declared panics
// (out of memory, a Halt verdict, a bounds or field check) become the plain
// error; anything else is a bug — possibly raised in a locked region of the
// runtime — so its stack goes into the error and to stderr.
func (s *Server) serve(w *worker, req request) (res result) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.failed.Add(1)
		msg := fmt.Sprintf("minidb: %s failed: %v", req.op, r)
		switch r.(type) {
		case *core.OutOfMemoryError, *report.HaltError, *core.IndexError, *core.FieldError:
		default:
			msg += "\n" + string(debug.Stack())
			fmt.Fprintln(os.Stderr, msg)
		}
		res = result{err: errors.New(msg)}
	}()
	switch req.op {
	case OpFind:
		s.withDB(func() { res.resp.Found = s.db.Find(req.key) })
	case OpScan:
		s.withDB(func() { res.resp.Sum = s.db.Scan() })
	case OpAdd:
		s.withDB(func() {
			s.db.AddOn(w.th)
			res.resp.Len = s.db.Len()
		})
	case OpRemove:
		s.withDB(func() {
			s.db.RemoveOn(w.th)
			res.resp.Len = s.db.Len()
		})
	case OpSession:
		res.err = s.session(w)
	default:
		res.err = fmt.Errorf("minidb: unknown op %d", req.op)
	}
	if res.err == nil {
		s.served[req.op].Add(1)
	} else {
		s.failed.Add(1)
	}
	return res
}

// session allocates one session into w's cache and expires the oldest past
// the cap. Allocation and cache maintenance run without s.mu — the list is
// worker-private — so session traffic exercises the concurrent allocator,
// not the database lock. Only the defect path (retaining the expired
// session in the shared cache) takes the lock.
func (s *Server) session(w *worker) error {
	rt, th, kit := s.rt, w.th, s.db.kit
	f := th.PushFrame(2)
	defer th.PopFrame()

	sess := th.New(s.sessClass)
	f.SetLocal(0, sess)
	items := th.NewRefArray(s.cfg.SessionItems)
	rt.SetRef(f.Local(0), s.sItems, items)
	for i := 0; i < s.cfg.SessionItems; i++ {
		str := th.NewString(itemText(w.nextID, i))
		f.SetLocal(1, str)
		items = rt.GetRef(f.Local(0), s.sItems)
		rt.ArrSetRef(items, i, f.Local(1))
	}
	rt.SetInt(f.Local(0), s.sID, w.nextID)
	w.nextID++

	kit.ListAdd(th, w.sessions.Get(), f.Local(0))
	for kit.ListLen(w.sessions.Get()) > s.cfg.SessionCap {
		kit.ListRemoveAtInto(f, 1, w.sessions.Get(), 0)
		s.expired.Add(1)
		if s.cfg.DB.LeakCache {
			// The defect: the "expired" session is retained in the shared
			// cache, so it is not dead at all.
			s.withDB(func() { kit.ListAdd(th, s.sessCache.Get(), f.Local(1)) })
			s.leaked.Add(1)
		}
		if s.cfg.AssertDeadSessions {
			// The check: an expired session should be unreachable by the
			// next collection. With LeakCache above, it is not — and the
			// collector reports the retention path.
			if err := f.AssertDead(1); err != nil {
				return err
			}
		}
	}
	return nil
}

// Do submits one request and blocks for its result. The span from
// submission to reply — queueing included — is recorded as a telemetry
// request event, which is exactly the latency an operator's SLO sees.
func (s *Server) Do(op Op, key int64) (Response, error) {
	if op >= NumOps {
		return Response{}, fmt.Errorf("minidb: unknown op %d", op)
	}
	start := time.Now()
	req := request{op: op, key: key, reply: make(chan result, 1)}
	s.sendMu.RLock()
	if s.closed {
		s.sendMu.RUnlock()
		return Response{}, ErrServerClosed
	}
	s.reqs <- req
	s.sendMu.RUnlock()
	r := <-req.reply
	s.rt.Telemetry().Request(s.opCodes[op], time.Since(start))
	return r.resp, r.err
}

// Close drains the pool: no new requests are accepted, in-flight ones
// finish. Safe to call twice.
func (s *Server) Close() {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return
	}
	s.closed = true
	close(s.reqs)
	s.sendMu.Unlock()
	s.wg.Wait()
}

// ServerStats is a point-in-time counter snapshot.
type ServerStats struct {
	Served  [NumOps]uint64
	Failed  uint64
	Expired uint64
	Leaked  uint64
}

// Total returns the number of successfully served requests.
func (st ServerStats) Total() uint64 {
	var n uint64
	for _, c := range st.Served {
		n += c
	}
	return n
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	var st ServerStats
	for op := Op(0); op < NumOps; op++ {
		st.Served[op] = s.served[op].Load()
	}
	st.Failed = s.failed.Load()
	st.Expired = s.expired.Load()
	st.Leaked = s.leaked.Load()
	return st
}
