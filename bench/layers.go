package main

import (
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/minidb"
)

// Per-layer measurements that do not depend on the workload: isolated calls
// into core on small dedicated runtimes (the accessor microbenchmark the
// repo did not have), and the armed_gc script replayed on three runtime
// configurations for the paper's overhead ratios.

const (
	isolatedCalls1M  = 1_000_000 // accessor and allocator calls, each metric
	isolatedAsserts  = 100_000   // assertion registrations, each kind
	isolatedBarriers = 200_000   // reference stores under an open cycle
	isolatedBatch    = 1024      // objects per registration / barrier round
	replayCycles     = 200       // armed_gc ops per replayed configuration
	directCallsN     = 400       // Find, Add and Remove calls each
)

// sinkRef and sinkInt keep the compiler from dropping a measured read.
var (
	sinkRef core.Ref
	sinkInt int64
)

// nsPerCall is the mean of n calls that began at start.
func nsPerCall(start time.Time, n int) float64 {
	return float64(time.Since(start)) / float64(n)
}

// isolatedRuntime is a small stop-the-world runtime holding two linked
// nodes and a full reference array, all rooted in one frame.
type isolatedRuntime struct {
	rt      *core.Runtime
	th      *core.Thread
	node    *core.Class
	next, v uint16
	a, b    core.Ref
	arr     core.Ref // isolatedBatch references to b
}

func newIsolatedRuntime(cfg core.Config) *isolatedRuntime {
	cfg.HeapWords = 1 << 18
	cfg.Mode = core.Infrastructure
	rt := core.New(cfg)
	r := &isolatedRuntime{rt: rt, th: rt.MainThread()}
	r.node = rt.DefineClass("Node", core.RefField("next"), core.DataField("v"))
	r.next, r.v = r.node.MustFieldIndex("next"), r.node.MustFieldIndex("v")
	f := r.th.PushFrame(3)
	f.SetLocal(0, r.th.New(r.node))
	f.SetLocal(1, r.th.New(r.node))
	f.SetLocal(2, r.th.NewRefArray(isolatedBatch))
	r.a, r.b, r.arr = f.Local(0), f.Local(1), f.Local(2)
	rt.SetRef(r.a, r.next, r.b)
	for i := 0; i < isolatedBatch; i++ {
		rt.ArrSetRef(r.arr, i, r.b)
	}
	return r
}

// fill replaces the array's elements with fresh nodes and returns them.
func (r *isolatedRuntime) fill(refs []core.Ref) {
	for i := range refs {
		refs[i] = r.th.New(r.node)
		r.rt.ArrSetRef(r.arr, i, refs[i])
	}
}

// drop clears the array and collects, so the batch dies and takes its
// registrations with it.
func (r *isolatedRuntime) drop() {
	for i := 0; i < isolatedBatch; i++ {
		r.rt.ArrSetRef(r.arr, i, core.Nil)
	}
	must(r.rt.GC())
}

func isolatedCalls(m map[string]float64, o options) {
	n := o.scaled(isolatedCalls1M)
	r := newIsolatedRuntime(core.Config{})
	rt, th := r.rt, r.th

	start := time.Now()
	for i := 0; i < n; i++ {
		sinkRef = rt.GetRef(r.a, r.next)
	}
	m["core.getref_ns"] = nsPerCall(start, n)

	start = time.Now()
	for i := 0; i < n; i++ {
		rt.SetRef(r.a, r.next, r.b)
	}
	m["core.setref_ns"] = nsPerCall(start, n)

	start = time.Now()
	for i := 0; i < n; i++ {
		sinkInt = rt.GetInt(r.a, r.v)
	}
	m["core.getint_ns"] = nsPerCall(start, n)

	start = time.Now()
	for i := 0; i < n; i++ {
		sinkRef = rt.ArrGetRef(r.arr, i%isolatedBatch)
	}
	m["core.arrgetref_ns"] = nsPerCall(start, n)

	start = time.Now()
	for i := 0; i < n; i++ {
		rt.ArrSetRef(r.arr, i%isolatedBatch, r.b)
	}
	m["core.arrsetref_ns"] = nsPerCall(start, n)

	// Allocation: every object is garbage at once, so the figure includes
	// the allocator's share of the (nearly empty) collections it triggers.
	start = time.Now()
	for i := 0; i < n; i++ {
		sinkRef = th.New(r.node)
	}
	m["core.new_direct_ns"] = nsPerCall(start, n)

	start = time.Now()
	for i := 0; i < n; i++ {
		sinkRef = th.NewString("Fred Smith")
	}
	m["core.newstring_ns"] = nsPerCall(start, n)

	// Registration: batches of live objects, only the assertion calls
	// timed; each batch is dropped and collected before the next.
	refs := make([]core.Ref, isolatedBatch)
	rounds := (o.scaled(isolatedAsserts) + isolatedBatch - 1) / isolatedBatch
	var dead, owned time.Duration
	for round := 0; round < rounds; round++ {
		r.fill(refs)
		start = time.Now()
		for _, ref := range refs {
			must(rt.AssertDead(ref))
		}
		dead += time.Since(start)
		r.drop()

		r.fill(refs)
		start = time.Now()
		for _, ref := range refs {
			must(rt.AssertOwnedBy(r.a, ref))
		}
		owned += time.Since(start)
		r.drop()
	}
	m["core.assert_dead_ns"] = float64(dead) / float64(rounds*isolatedBatch)
	m["core.assert_ownedby_ns"] = float64(owned) / float64(rounds*isolatedBatch)
	must(rt.Close())

	buffered := newIsolatedRuntime(core.Config{AllocBuffers: serveAllocBufs})
	start = time.Now()
	for i := 0; i < n; i++ {
		sinkRef = buffered.th.New(buffered.node)
	}
	m["core.new_buffered_ns"] = nsPerCall(start, n)
	must(buffered.rt.Close())

	// Barrier: an incremental cycle is opened and left open (nothing
	// allocates, so no marking tax is paid), and each store is the first to
	// its object in that cycle — the store that pays the snapshot scan.
	inc := newIsolatedRuntime(core.Config{IncrementalBudget: 64})
	inc.fill(refs)
	rounds = (o.scaled(isolatedBarriers) + isolatedBatch - 1) / isolatedBatch
	var barrier time.Duration
	for round := 0; round < rounds; round++ {
		must(inc.rt.StartGC())
		start = time.Now()
		for _, ref := range refs {
			inc.rt.SetRef(ref, inc.next, inc.b)
		}
		barrier += time.Since(start)
		must(inc.rt.FinishGC())
	}
	m["core.setref_barrier_ns"] = float64(barrier) / float64(rounds*isolatedBatch)
	must(inc.rt.Close())
}

// cycleReplays runs the armed_gc script on a Base runtime, on an
// Infrastructure runtime with no assertion registered, and armed, and
// reports each configuration's median forced collection — the paper's
// Fig. 3/5 comparison on this workload.
func cycleReplays(m map[string]float64, o options) {
	n := o.scaled(replayCycles)
	median := func(mode core.Mode, armed bool) float64 {
		w := buildArmedGC(o.seed, nil, mode, armed)
		lats := make([]uint32, 0, n)
		for i := 0; i < n+n/10+1; i++ {
			lat, _, _ := w.Op(0, nil)
			if i > n/10 { // the first tenth warms up
				lats = append(lats, uint32(lat))
			}
		}
		must(w.Check())
		must(w.Close())
		slices.Sort(lats)
		return percentile(lats, 0.5) / 1e3
	}
	base := median(core.Base, false)
	infra := median(core.Infrastructure, false)
	armed := median(core.Infrastructure, true)
	m["gc.base_cycle_us"] = base
	m["gc.infra_cycle_us"] = infra
	m["gc.armed_cycle_us"] = armed
	m["gc.infra_over_base"] = infra / base
	m["gc.armed_over_base"] = armed / base
}

// directCalls times Database.Find, AddOn and RemoveOn called on this
// goroutine — no server, no queue, no mutex — against the workload's own
// database, with the same recent-key choice the serving clients use. Adds
// and removes are paired, so the population is unchanged.
func directCalls(m map[string]float64, o options, rt *core.Runtime, db *minidb.Database, newest int) {
	n := o.scaled(directCallsN)
	th := rt.MainThread()
	r := newRNG(o.seed, 1<<32)
	recent := db.Len() / 10
	finds, adds, removes := make([]uint32, n), make([]uint32, n), make([]uint32, n)
	for i := 0; i < n; i++ {
		key := int64(newest - 1 - r.intn(recent))
		start := time.Now()
		db.Find(key)
		finds[i] = uint32(time.Since(start))
		start = time.Now()
		db.AddOn(th)
		adds[i] = uint32(time.Since(start))
		start = time.Now()
		db.RemoveOn(th)
		removes[i] = uint32(time.Since(start))
	}
	for name, lats := range map[string][]uint32{
		"minidb.direct_find_us":   finds,
		"minidb.direct_add_us":    adds,
		"minidb.direct_remove_us": removes,
	} {
		slices.Sort(lats)
		m[name] = percentile(lats, 0.5) / 1e3
	}
}
