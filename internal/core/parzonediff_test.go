package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestParallelZoneDifferential drives one deterministic mutator script
// against three zone-sharded runtimes whose explicit collections differ
// only in rotation width — one zone at a time (GCZones), and 2 and 4 zones
// collected simultaneously (GCZonesConcurrent) — and requires identical observable behavior at the
// final quiescent point: the same live objects by script-assigned id and
// the same assertion verdicts, across all four collector modes and three
// seeds.
//
// The comparison leans on the same precision contract as
// TestZoneDifferential: the verdict-producing rotation starts from a
// garbage-free state, where per-zone collection at any width must be
// verdict- and free-identical to a whole-heap collection. What this test
// adds over that differential is the claim that rotation CONCURRENCY is
// unobservable: however the worker
// pool interleaves the four zone collections, each zone's trace sees the
// same roots (its lock excludes in-zone mutation; remembered-set slots
// are resolved under it), so the pooled verdicts and the surviving
// multiset cannot depend on the schedule.
func TestParallelZoneDifferential(t *testing.T) {
	for _, mode := range zoneDiffModes() {
		for seed := int64(1); seed <= 3; seed++ {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s_seed%d", mode.name, seed), func(t *testing.T) {
				runParallelZoneDifferential(t, mode, seed)
			})
		}
	}
}

// pzZones is 4 so the widest arm genuinely runs every zone's collection
// simultaneously (workers capped at the zone count).
const pzZones = 4

func runParallelZoneDifferential(t *testing.T, mode zoneMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	script := make([]diffOp, 2000)
	for i := range script {
		script[i] = diffOp{byte(rng.Intn(100)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	regChoice := make([]int, diffSlots)
	for s := range regChoice {
		regChoice[s] = rng.Intn(3)
	}
	limit := int64(rng.Intn(4))

	width1 := newZoneDiffWorld(mode.cfg(), pzZones, true)
	conc2 := newZoneDiffWorld(mode.cfg(), pzZones, true)
	conc2.workers = 2
	conc4 := newZoneDiffWorld(mode.cfg(), pzZones, true)
	conc4.workers = 4
	worlds := []*zoneDiffWorld{width1, conc2, conc4}
	for _, op := range script {
		for _, w := range worlds {
			w.apply(t, op)
		}
	}

	for _, w := range worlds {
		// Quiesce exactly as TestZoneDifferential does: stop the
		// pacer, settle to a garbage-free state, register assertions at
		// the quiescent point, settle the newly created deaths whole-heap,
		// then produce verdicts with this world's own rotation flavor.
		if err := w.rt.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := w.rt.GC(); err != nil {
			t.Fatalf("quiesce GC: %v", err)
		}
		for s, c := range regChoice {
			r := w.fr.Local(s)
			if r == Nil {
				continue
			}
			switch c {
			case 0:
				if err := w.rt.AssertDead(r); err != nil {
					t.Fatalf("AssertDead: %v", err)
				}
				w.fr.SetLocal(s, Nil)
			case 1:
				if err := w.rt.AssertUnshared(r); err != nil {
					t.Fatalf("AssertUnshared: %v", err)
				}
			}
		}
		if err := w.rt.AssertInstances(w.node, limit); err != nil {
			t.Fatalf("AssertInstances: %v", err)
		}
		if err := w.rt.GC(); err != nil {
			t.Fatalf("settling GC: %v", err)
		}
		w.collect(t)
	}

	want := drainSorted(width1.diffWorld)
	for _, w := range worlds[1:] {
		if got := drainSorted(w.diffWorld); !reflect.DeepEqual(want, got) {
			t.Fatalf("assertion verdicts differ (workers=%d):\nwidth 1: %v\ngot:     %v",
				w.workers, want, got)
		}
	}
	wantLive := width1.liveIDs(t)
	for _, w := range worlds[1:] {
		if got := w.liveIDs(t); !reflect.DeepEqual(wantLive, got) {
			t.Fatalf("live sets differ (workers=%d):\nwidth 1: %v\ngot:     %v",
				w.workers, wantLive, got)
		}
	}
	for _, w := range worlds {
		if errs := w.rt.VerifyHeap(); len(errs) != 0 {
			t.Fatalf("heap corrupt (workers=%d): %v", w.workers, errs[0])
		}
	}
	for _, w := range worlds {
		if n := w.rt.Stats().GC.ZoneCollections; n < pzZones {
			t.Fatalf("workers=%d world ran only %d zone collections", w.workers, n)
		}
	}
}
