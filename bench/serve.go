package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/minidb"
	"repro/internal/telemetry"
)

// serve_read and serve_churn: minidb.Server (2 workers with 2048-word
// allocation buffers) driven by 2 client goroutines that each call
// Server.Do back to back. The HTTP layer lives in cmd/minidbd, package main,
// and cannot be imported, so Server.Do — submission to reply, queueing
// included — is the serving boundary.
//
// Adds and removes are issued in strict pairs per client (a client's
// mutation slots alternate add, remove), so the population stays within ±2
// of its start: unpaired, the entry list doubles and a 2048-word array
// allocation eventually fails from fragmentation.
//
// Finds look for recently added keys (the newest tenth of the key space, as
// the client can infer it from its own adds). Remove deletes a random entry,
// so an older key's hit rate decays over the window, while a recent key is
// found near the end of the list or not at all: either way the scan covers
// about the whole list from the first request to the last, which keeps the
// cost of a find stationary however many ops a window fits.

type serveShape struct {
	name      string
	heapWords int
	entries   int
	conc      bool // the "concurrent" collector config: ConcurrentGC + pacer
	// The op mix in percent; the rest up to 100 is mutation slots.
	findPct, sessionPct int
}

var (
	serveReadShape  = serveShape{name: "serve_read", heapWords: 1 << 21, entries: 5000, findPct: 90}
	serveChurnShape = serveShape{name: "serve_churn", heapWords: 65536, entries: 1000, conc: true, findPct: 10, sessionPct: 60}
)

const (
	serveWorkers   = 2
	serveClients   = 2
	serveAllocBufs = 2048
)

// serveClient is one client's op stream state.
type serveClient struct {
	rng     rng
	adds    int  // adds this client has issued
	removes bool // the next mutation slot is a remove
	sent    [minidb.NumOps]uint64
	err     error    // the first request error this client saw
	_       [64]byte // keep the two clients' counters off one cache line
}

type serve struct {
	shape    serveShape
	rt       *core.Runtime
	srv      *minidb.Server
	clients  [serveClients]serveClient
	startLen int
}

func buildServeRead(seed uint64, tele *telemetry.Config) instance {
	return buildServe(serveReadShape, seed, tele)
}

func buildServeChurn(seed uint64, tele *telemetry.Config) instance {
	return buildServe(serveChurnShape, seed, tele)
}

func buildServe(shape serveShape, seed uint64, tele *telemetry.Config) *serve {
	rt := core.New(core.Config{
		HeapWords:    shape.heapWords,
		Mode:         core.Infrastructure,
		AllocBuffers: serveAllocBufs,
		ConcurrentGC: shape.conc,
		Telemetry:    tele,
	})
	w := &serve{
		shape: shape,
		rt:    rt,
		srv: minidb.NewServer(rt, minidb.ServerConfig{
			DB:      minidb.Config{Entries: shape.entries},
			Workers: serveWorkers,
		}),
		startLen: shape.entries,
	}
	for c := range w.clients {
		w.clients[c].rng = newRNG(seed, uint64(c))
	}
	return w
}

func (w *serve) Runtime() *core.Runtime { return w.rt }

var doSpan = [minidb.NumOps]spanName{
	minidb.OpFind:    spDoFind,
	minidb.OpScan:    spDoScan,
	minidb.OpAdd:     spDoAdd,
	minidb.OpRemove:  spDoRemove,
	minidb.OpSession: spDoSession,
}

func (w *serve) Op(c int, _ *clientTrace) (time.Duration, spanName, bool) {
	cl := &w.clients[c]
	var (
		op  minidb.Op
		key int64
	)
	switch r := cl.rng.intn(100); {
	case r < w.shape.findPct:
		op = minidb.OpFind
		// Keys are dense from 0; every client adds at the same rate, so the
		// newest key is about entries + clients*adds.
		newest := w.shape.entries + serveClients*cl.adds
		key = int64(newest - 1 - cl.rng.intn(w.shape.entries/10))
	case r < w.shape.findPct+w.shape.sessionPct:
		op = minidb.OpSession
	case cl.removes:
		op = minidb.OpRemove
		cl.removes = false
	default:
		op = minidb.OpAdd
		cl.removes = true
		cl.adds++
	}
	cl.sent[op]++
	start := time.Now()
	_, err := w.srv.Do(op, key)
	lat := time.Since(start)
	if err != nil && cl.err == nil {
		cl.err = err
	}
	return lat, doSpan[op], err == nil
}

func (w *serve) Check() error {
	for c := range w.clients {
		if err := w.clients[c].err; err != nil {
			return fmt.Errorf("%s: client %d: %w", w.shape.name, c, err)
		}
	}
	st := w.srv.Stats()
	if st.Failed != 0 {
		return fmt.Errorf("%s: server reports %d failed requests", w.shape.name, st.Failed)
	}
	for op := minidb.Op(0); op < minidb.NumOps; op++ {
		var sent uint64
		for c := range w.clients {
			sent += w.clients[c].sent[op]
		}
		if st.Served[op] != sent {
			return fmt.Errorf("%s: %d %s requests served, %d sent", w.shape.name, st.Served[op], op, sent)
		}
	}
	if n := w.srv.Database().Len(); n < w.startLen-serveClients || n > w.startLen+serveClients {
		return fmt.Errorf("%s: database holds %d entries, started with %d", w.shape.name, n, w.startLen)
	}
	return nil
}

func (w *serve) Close() error {
	w.srv.Close()
	return w.rt.Close()
}
