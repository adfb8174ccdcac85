package minidb

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func testServer(t *testing.T, cfg ServerConfig, coreCfg core.Config) (*core.Runtime, *Server) {
	t.Helper()
	if coreCfg.HeapWords == 0 {
		coreCfg.HeapWords = 1 << 17
	}
	if coreCfg.Mode == 0 {
		coreCfg.Mode = core.Infrastructure
	}
	rt := core.New(coreCfg)
	if cfg.DB.Entries == 0 {
		cfg.DB.Entries = 200
	}
	srv := NewServer(rt, cfg)
	t.Cleanup(func() {
		srv.Close()
		if err := rt.Close(); err != nil {
			t.Errorf("runtime close: %v", err)
		}
	})
	return rt, srv
}

// TestServerServesConcurrently drives every op from several client
// goroutines through a buffered-thread worker pool and checks the
// responses, the counters, and that the telemetry request spans agree with
// the served totals.
func TestServerServesConcurrently(t *testing.T) {
	rt, srv := testServer(t,
		ServerConfig{Workers: 3, SessionCap: 4, SessionItems: 3},
		core.Config{Telemetry: &telemetry.Config{}, AllocBuffers: 512})

	const clients, perClient = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				op := Op(i % int(NumOps))
				if _, err := srv.Do(op, seed*perClient+int64(i)); err != nil {
					errs <- err
					return
				}
			}
		}(int64(c))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.Stats()
	if got := st.Total(); got != clients*perClient {
		t.Errorf("served %d requests, want %d (stats %+v)", got, clients*perClient, st)
	}
	if st.Failed != 0 {
		t.Errorf("failed = %d, want 0", st.Failed)
	}
	adds, removes := st.Served[OpAdd], st.Served[OpRemove]
	if want := 200 + int(adds) - int(removes); srv.Database().Len() != want {
		t.Errorf("db len = %d, want %d (adds %d removes %d)", srv.Database().Len(), want, adds, removes)
	}
	m := rt.Metrics()
	if m.AllRequest.Count != clients*perClient {
		t.Errorf("telemetry recorded %d request spans, want %d", m.AllRequest.Count, clients*perClient)
	}
	byOp := map[string]uint64{}
	for _, r := range m.Requests {
		byOp[r.Phase] = r.Count
	}
	for op := Op(0); op < NumOps; op++ {
		if byOp[op.String()] != st.Served[op] {
			t.Errorf("telemetry op %s count %d != served %d", op, byOp[op.String()], st.Served[op])
		}
	}
}

// TestServerFindScan pins the read ops' payloads.
func TestServerFindScan(t *testing.T) {
	_, srv := testServer(t, ServerConfig{Workers: 1}, core.Config{})
	resp, err := srv.Do(OpFind, 5)
	if err != nil || !resp.Found {
		t.Errorf("find(5) = %+v, %v; want found", resp, err)
	}
	resp, err = srv.Do(OpFind, 1<<40)
	if err != nil || resp.Found {
		t.Errorf("find(absent) = %+v, %v; want not found", resp, err)
	}
	resp, err = srv.Do(OpScan, 0)
	if err != nil || resp.Sum == 0 {
		t.Errorf("scan = %+v, %v; want nonzero sum", resp, err)
	}
}

// TestSessionLeakCaughtByAssertDead is the injectable-defect acceptance
// test: with LeakCache the expired-session assert-dead fires on the next
// collection; without it the same traffic is violation-free.
func TestSessionLeakCaughtByAssertDead(t *testing.T) {
	for _, leak := range []bool{false, true} {
		cfg := ServerConfig{
			Workers:            2,
			SessionCap:         4,
			SessionItems:       2,
			AssertDeadSessions: true,
			DB:                 Config{Entries: 50, LeakCache: leak},
		}
		rt, srv := testServer(t, cfg, core.Config{
			Handler: report.HandlerFunc(func(*report.Violation) report.Action { return report.Continue }),
		})
		for i := 0; i < 40; i++ {
			if _, err := srv.Do(OpSession, 0); err != nil {
				t.Fatalf("leak=%v: session %d: %v", leak, i, err)
			}
		}
		if st := srv.Stats(); st.Expired == 0 {
			t.Fatalf("leak=%v: no sessions expired (cap %d, stats %+v)", leak, cfg.SessionCap, st)
		}
		if err := rt.GC(); err != nil {
			t.Fatalf("leak=%v: GC: %v", leak, err)
		}
		violations := rt.Violations()
		if leak && len(violations) == 0 {
			t.Error("leak=true: assert-dead caught nothing")
		}
		if !leak && len(violations) != 0 {
			t.Errorf("leak=false: unexpected violations: %v", violations[0])
		}
		for _, v := range violations {
			if !strings.Contains(v.Kind.String(), "dead") {
				t.Errorf("unexpected violation kind %s", v.Kind)
			}
		}
	}
}

// TestServerUnderConcurrentPacer runs the pool against the background
// collector: session churn forces cycles while requests are in flight.
func TestServerUnderConcurrentPacer(t *testing.T) {
	_, srv := testServer(t,
		ServerConfig{Workers: 2, SessionCap: 8, SessionItems: 4},
		core.Config{
			HeapWords:    1 << 16,
			ConcurrentGC: true,
			AllocBuffers: 256,
			Telemetry:    &telemetry.Config{},
		})
	for i := 0; i < 300; i++ {
		op := OpSession
		if i%5 == 0 {
			op = OpAdd
		}
		if _, err := srv.Do(op, 0); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.Failed != 0 {
		t.Errorf("failed = %d, want 0 (stats %+v)", st.Failed, st)
	}
}

// TestServerSurvivesOOMUnderLock pins the panic-recovery contract: an
// allocation panic (*OutOfMemoryError) raised inside a locked database op
// is recovered by serve with the lock already released, so later requests
// still complete and Close drains — a doomed request must not wedge the
// pool on s.mu.
func TestServerSurvivesOOMUnderLock(t *testing.T) {
	_, srv := testServer(t,
		ServerConfig{Workers: 2, DB: Config{Entries: 16}},
		core.Config{HeapWords: 1 << 12})
	var oomed bool
	for i := 0; i < 5000 && !oomed; i++ {
		if _, err := srv.Do(OpAdd, 0); err != nil {
			oomed = true
			if strings.Contains(err.Error(), "goroutine ") {
				t.Errorf("a declared runtime panic carries a stack: %v", err)
			}
		}
	}
	if !oomed {
		t.Fatal("no add ever failed: heap too large to exhaust, test proves nothing")
	}
	// The heap is full; reads allocate nothing and must still get through
	// the (released) database lock on both workers.
	for i := 0; i < 4; i++ {
		if resp, err := srv.Do(OpFind, 1); err != nil || !resp.Found {
			t.Fatalf("find after OOM = %+v, %v; want found", resp, err)
		}
	}
	if st := srv.Stats(); st.Failed == 0 {
		t.Errorf("failed = 0, want the OOM'd requests counted (stats %+v)", st)
	}
}

// TestServerReportsUnexpectedPanic: a panic that is not one of the runtime's
// declared ones — here a nil dereference inside a locked database op — comes
// back as a request error carrying the stack, so it names where it was
// raised; the database lock is released and the pool serves the next request.
func TestServerReportsUnexpectedPanic(t *testing.T) {
	_, srv := testServer(t, ServerConfig{Workers: 1}, core.Config{})
	// The worker reads w.th only inside serve, after receiving the request
	// this goroutine sends next.
	srv.workers[0].th = nil
	_, err := srv.Do(OpAdd, 0)
	if err == nil {
		t.Fatal("add on a nil thread succeeded")
	}
	for _, want := range []string{"minidb: add failed", "nil pointer dereference", "(*Database).AddOn"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not mention %q:\n%v", want, err)
		}
	}
	if !srv.mu.TryLock() {
		t.Fatal("the database lock is still held after the recovered panic")
	}
	srv.mu.Unlock()
	if resp, err := srv.Do(OpFind, 5); err != nil || !resp.Found {
		t.Errorf("find after the panic = %+v, %v; want found", resp, err)
	}
	if st := srv.Stats(); st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}
}

// TestServerReportsRangeCheck: a refused range move (core.ArrCopyRefs inside
// ListRemoveAt, here because the entry list's backing array was swapped for
// one an element short) is one of the runtime's declared panics: the request
// fails with the plain error and no stack, nothing was moved, the database
// lock is free and the pool serves on.
func TestServerReportsRangeCheck(t *testing.T) {
	rt, srv := testServer(t, ServerConfig{Workers: 1, DB: Config{Entries: 20}}, core.Config{})
	entries := rt.GetRef(srv.db.db.Get(), srv.db.dEntries)
	dataOff := rt.ClassOf(entries).MustFieldIndex("data")
	// The full array stays rooted in the frame while it is swapped out.
	main := rt.MainThread()
	f := main.PushFrame(2)
	defer main.PopFrame()
	full := rt.GetRef(entries, dataOff)
	f.SetLocal(0, full)
	short := f.NewRefArray(1, 19)
	rt.ArrCopyRefs(short, 0, full, 0, 19)
	rt.SetRef(entries, dataOff, short)
	// Removing the last entry shifts nothing: skip such a draw.
	for {
		saved := srv.db.rng
		if srv.db.rand(20) != 19 {
			srv.db.rng = saved
			break
		}
	}

	_, err := srv.Do(OpRemove, 0)
	if err == nil || !strings.Contains(err.Error(), (&core.IndexError{}).Error()) || strings.Contains(err.Error(), "goroutine ") {
		t.Fatalf("remove over the short array = %v, want the plain IndexError text", err)
	}
	for i := 0; i < 19; i++ {
		if rt.ArrGetRef(short, i) != rt.ArrGetRef(full, i) {
			t.Fatalf("element %d moved before the range check refused", i)
		}
	}
	if !srv.mu.TryLock() {
		t.Fatal("the database lock is still held after the recovered panic")
	}
	srv.mu.Unlock()
	rt.SetRef(entries, dataOff, full)
	if resp, err := srv.Do(OpRemove, 0); err != nil || resp.Len != 19 {
		t.Errorf("remove after the repair = %+v, %v; want 19 entries left", resp, err)
	}
}

// TestServerClose pins the shutdown contract.
func TestServerClose(t *testing.T) {
	rt := core.New(core.Config{HeapWords: 1 << 16, Mode: core.Infrastructure})
	srv := NewServer(rt, ServerConfig{Workers: 2, DB: Config{Entries: 20}})
	if _, err := srv.Do(OpFind, 1); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Do(OpFind, 1); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Do after Close = %v, want ErrServerClosed", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}
