package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/minidb"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// armed_gc: the paper's db case study at its own scale with every assertion
// kind in play, and one forced full collection per op. An op runs three
// mutator steps in an order the seed permutes — 4 Remove/Add pairs, a
// StartRegion / 8 temporary strings / AssertAllDead bracket, and 64 Leak
// objects stored in a rooted array and asserted dead — then times rt.GC()
// from outside, checks what the collection reported, clears the array and
// resets the violation log. The 64 leaks are the only live asserted-dead
// objects, so every collection must report exactly 64 assert-dead
// violations, each with the path Object[] -> Leak.
//
// The same script runs with the assertion calls left out (armed=false) and
// on a Base runtime: those are the gc.*_cycle_us replays in layers.go.

const (
	armedHeapWords = 1 << 20
	armedEntries   = 15000
	armedInstances = 20000
	armedPairs     = 4
	armedTemps     = 8
	armedLeaks     = 64
	armedAgeing    = 24000 // entries replaced before the window, at scale 1
)

type armedStep uint8

const (
	stepPairs armedStep = iota
	stepRegion
	stepLeaks
)

type armedGC struct {
	rt    *core.Runtime
	th    *core.Thread
	db    *minidb.Database
	leak  *core.Class
	leaks *core.Global // the rooted Object[] holding this op's Leak objects
	armed bool
	rng   rng
	steps [3]armedStep
	adds  int

	ownees uint64 // Trace.OwneesChecked after the previous collection
	err    error  // first failed per-op check
}

func buildArmedGC(seed uint64, tele *telemetry.Config, mode core.Mode, armed bool) *armedGC {
	rt := core.New(core.Config{HeapWords: armedHeapWords, Mode: mode, Telemetry: tele})
	w := &armedGC{
		rt: rt,
		th: rt.MainThread(),
		db: minidb.New(rt, minidb.Config{
			Entries:            armedEntries,
			AssertOwnership:    armed,
			AssertDeadOnRemove: armed,
		}),
		armed: armed,
		rng:   newRNG(seed, 0),
		steps: [3]armedStep{stepPairs, stepRegion, stepLeaks},
	}
	if armed {
		must(rt.AssertInstances(w.db.Entry, armedInstances))
	}
	w.leak = rt.DefineClass("Leak", core.DataField("n"))
	w.leaks = rt.AddGlobal("bench.leaks")
	w.leaks.Set(w.th.NewRefArray(armedLeaks))
	w.ownees = rt.Stats().GC.Trace.OwneesChecked
	return w
}

func (w *armedGC) Runtime() *core.Runtime { return w.rt }

// age replaces about n entries, 64 Remove/Add pairs to a collection, so that
// the run starts from the heap a long-lived database has. Remove picks a
// random entry and Add appends, so list order drifts away from address order
// and a collection's cache behaviour with it: measured from a fresh heap the
// median collection slows from 2.3 ms to about 4.2 ms over the first 4000
// ops and only then levels off — a window would report how far into that
// curve its op count reached, and a faster program would look slower for
// it. Ageing by 1.6 turnovers of the 15000 entries leaves a fifth of them in
// their first place when the window opens.
func (w *armedGC) age(n int) {
	for done := 0; done < n; done += 64 {
		for i := 0; i < 64; i++ {
			w.db.Remove()
			w.db.Add()
		}
		w.adds += 64
		must(w.rt.GC())
	}
	w.ownees = w.rt.Stats().GC.Trace.OwneesChecked
}

// tempText is sliced to seed-chosen lengths for the region's temporaries.
const tempText = "temporary row buffer for one query, dead when the bracket closes"

func (w *armedGC) Op(_ int, t *clientTrace) (time.Duration, spanName, bool) {
	rt, th := w.rt, w.th
	for i := len(w.steps) - 1; i > 0; i-- {
		j := w.rng.intn(i + 1)
		w.steps[i], w.steps[j] = w.steps[j], w.steps[i]
	}
	for _, step := range w.steps {
		switch step {
		case stepPairs:
			for i := 0; i < armedPairs; i++ {
				s := t.now()
				w.db.Remove()
				t.add(spDBRemove, s)
				s = t.now()
				w.db.Add()
				t.add(spDBAdd, s)
				w.adds++
			}
		case stepRegion:
			s := t.now()
			if w.armed {
				must(th.StartRegion())
			}
			for i := 0; i < armedTemps; i++ {
				th.NewString(tempText[:8+w.rng.intn(len(tempText)-8)])
			}
			if w.armed {
				must(th.AssertAllDead())
			}
			t.add(spRegion, s)
		case stepLeaks:
			s := t.now()
			arr := w.leaks.Get()
			for i := 0; i < armedLeaks; i++ {
				o := th.New(w.leak)
				rt.ArrSetRef(arr, i, o)
				if w.armed {
					must(rt.AssertDead(o))
				}
			}
			t.add(spAssertDead, s)
		}
	}

	s := t.now()
	start := time.Now()
	err := rt.GC()
	lat := time.Since(start)
	t.add(spCollect, s)

	s = t.now()
	if err == nil && w.armed {
		err = w.checkCollection()
	}
	arr := w.leaks.Get()
	for i := 0; i < armedLeaks; i++ {
		rt.ArrSetRef(arr, i, core.Nil)
	}
	rt.ResetViolations()
	t.add(spCheck, s)
	if err != nil && w.err == nil {
		w.err = err
	}
	return lat, spOp, err == nil
}

// checkCollection judges the collection that just ran: exactly the 64 leaks
// reported, each as assert-dead with the two-step path, and every one of the
// database's owned entries checked.
func (w *armedGC) checkCollection() error {
	vs := w.rt.Violations()
	if len(vs) != armedLeaks {
		return fmt.Errorf("armed_gc: %d violations in one collection, want %d", len(vs), armedLeaks)
	}
	for _, v := range vs {
		if v.Kind != report.DeadReachable {
			return fmt.Errorf("armed_gc: unexpected %s violation:\n%s", v.Kind, v.Format())
		}
		if len(v.Path) != 2 || v.Path[0].Class != "Object[]" || v.Path[1].Class != "Leak" {
			return fmt.Errorf("armed_gc: assert-dead path is not Object[] -> Leak:\n%s", v.Format())
		}
	}
	checked := w.rt.Stats().GC.Trace.OwneesChecked
	delta := checked - w.ownees
	w.ownees = checked
	if delta != armedEntries {
		return fmt.Errorf("armed_gc: %d ownees checked in one collection, want %d", delta, armedEntries)
	}
	return nil
}

func (w *armedGC) Check() error {
	if w.err != nil {
		return w.err
	}
	if n := w.db.Len(); n != armedEntries {
		return fmt.Errorf("armed_gc: database holds %d entries, want %d", n, armedEntries)
	}
	return nil
}

func (w *armedGC) Close() error { return w.rt.Close() }
