package minidb

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestServeChurnArmed is the serve_churn shape with its assertion armed: the
// concurrent collector in a 65 536-word heap with 2048-word allocation
// buffers, 1 000 entries, 2 workers and 2 clients; 10 % finds, 60 % sessions,
// and adds and removes alternating in the rest, every expired session asserted
// dead. No session leaks, so the exact verdict is no violation at all, no
// request may fail, and the heap must verify once the pool and the runtime
// are closed. Under -short (make torture) each client sends fewer requests.
func TestServeChurnArmed(t *testing.T) {
	const entries, clients = 1000, 2
	perClient := 3000
	if testing.Short() {
		perClient = 300
	}
	rt := core.New(core.Config{HeapWords: 65536, Mode: core.Infrastructure,
		ConcurrentGC: true, AllocBuffers: 2048})
	srv := NewServer(rt, ServerConfig{Workers: 2, DB: Config{Entries: entries}, AssertDeadSessions: true})

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := range clients {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			adds, remove := 0, false
			for range perClient {
				op, key := OpAdd, int64(0)
				switch r := rng.Intn(100); {
				case r < 10:
					// A recently added key, as serve_churn looks up.
					op, key = OpFind, int64(entries+clients*adds-1-rng.Intn(entries/10))
				case r < 70:
					op = OpSession
				case remove:
					op = OpRemove
				default:
					adds++
				}
				if op == OpAdd || op == OpRemove {
					remove = !remove
				}
				if _, err := srv.Do(op, key); err != nil {
					errs <- err
					return
				}
			}
		}(rand.New(rand.NewSource(int64(c + 1))))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	srv.Close()
	if err := rt.Close(); err != nil {
		t.Fatalf("runtime close: %v", err)
	}
	st := srv.Stats()
	if st.Failed != 0 || st.Expired == 0 {
		t.Errorf("failed %d, expired %d sessions: want none failed and some expired", st.Failed, st.Expired)
	}
	for _, v := range rt.Violations() {
		t.Errorf("violation: %v", v)
	}
	if s := rt.Stats().Pacer; s.Cycles == 0 {
		t.Errorf("no collection cycle ran under the traffic: %+v", s)
	}
	if errs := rt.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("heap corrupt after the run: %v", errs[0])
	}
}
