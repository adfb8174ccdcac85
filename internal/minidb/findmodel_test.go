package minidb

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/collections"
	"repro/internal/core"
)

// findOps is how a find script reaches a Database: directly, or through a
// Server's workers. quiet runs fn while no database op is in flight.
type findOps struct {
	add, remove func()
	find        func(key int64) bool
	quiet       func(fn func())
}

func directOps(d *Database) findOps {
	return findOps{
		add:    d.Add,
		remove: d.Remove,
		find:   d.Find,
		quiet:  func(fn func()) { fn() },
	}
}

// TestFindModel runs a seeded Add / Remove / Find script against a Go model
// of the entry list (the keys in list order) on a stop-the-world runtime, on
// one whose concurrent collector marks one object per slice, so that cycles
// open, advance and close between the blocks of one Find, and through a
// 2-worker Server whose sessions churn the allocator while the finds run.
// After every find, Found says whether the key is live; a hit leaves
// `current` naming the list's entry with that key, and a miss leaves it
// unchanged.
func TestFindModel(t *testing.T) {
	for _, regime := range []struct {
		name string
		cfg  core.Config
	}{
		{name: "stw"},
		{name: "incremental", cfg: core.Config{IncrementalBudget: 1, ConcurrentGC: true}},
	} {
		t.Run(regime.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := regime.cfg
				cfg.HeapWords = 1 << 14
				cfg.Mode = core.Infrastructure
				rt := core.New(cfg)
				d := New(rt, Config{Entries: 300})
				runFindModel(t, d, seed, directOps(d), func(op int) {
					if cfg.IncrementalBudget == 0 && op%25 == 0 {
						if err := rt.GC(); err != nil {
							t.Fatal(err)
						}
					}
				})
				if err := rt.Close(); err != nil {
					t.Fatal(err)
				}
				st := rt.Stats()
				if st.GC.Collections == 0 {
					t.Errorf("seed %d: no collection ran", seed)
				}
				if cfg.IncrementalBudget > 0 && st.Pacer.Cycles == 0 {
					t.Errorf("seed %d: the pacer completed no cycle", seed)
				}
				if errs := rt.VerifyHeap(); len(errs) != 0 {
					t.Fatalf("seed %d: heap corrupt: %v", seed, errs[0])
				}
			}
		})
	}

	t.Run("server", func(t *testing.T) {
		rt, srv := testServer(t,
			ServerConfig{Workers: 2, SessionCap: 8, SessionItems: 4, DB: Config{Entries: 300}},
			core.Config{HeapWords: 1 << 16, ConcurrentGC: true, AllocBuffers: 256})
		do := func(op Op, key int64) Response {
			r, err := srv.Do(op, key)
			if err != nil {
				t.Errorf("%s: %v", op, err)
			}
			return r
		}
		stop := make(chan struct{})
		var churn sync.WaitGroup
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := srv.Do(OpSession, 0); err != nil {
						t.Errorf("session: %v", err)
						return
					}
				}
			}
		}()
		runFindModel(t, srv.Database(), 1, findOps{
			add:    func() { do(OpAdd, 0) },
			remove: func() { do(OpRemove, 0) },
			find:   func(key int64) bool { return do(OpFind, key).Found },
			quiet:  srv.withDB,
		}, func(int) {})
		// The churn goroutine may not have run yet: stop it only once it
		// has expired a session and the pacer has completed a cycle.
		for deadline := time.Now().Add(30 * time.Second); srv.Stats().Expired == 0 || rt.Stats().Pacer.Cycles == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("after 30 s the churn had expired no session or the pacer had completed no cycle")
				break
			}
		}
		close(stop)
		churn.Wait()
		if st := srv.Stats(); st.Failed != 0 || st.Expired == 0 {
			t.Errorf("server stats %+v: want no failures and expired sessions", st)
		}
		if rt.Stats().Pacer.Cycles == 0 {
			t.Error("the pacer completed no cycle while the finds ran")
		}
	})
}

// runFindModel drives the script on d through o; between ops it calls
// after(op). The model starts as New builds the list: keys 0..Entries-1.
func runFindModel(t *testing.T, d *Database, seed int64, o findOps, after func(op int)) {
	t.Helper()
	rt := d.rt
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, d.cfg.Entries)
	for i := range keys {
		keys[i] = int64(i)
	}
	current := func() (c core.Ref) {
		o.quiet(func() { c = rt.GetRef(d.Ref(), d.dCurrent) })
		return c
	}
	hits, misses := 0, 0
	for op := 0; op < 1500; op++ {
		switch k := rng.Intn(10); {
		case k < 2: // add: the entry takes the next key, at the list's end
			var key int64
			o.quiet(func() { key = d.nextKey })
			o.add()
			keys = append(keys, key)
		case k < 4 && len(keys) > 0: // remove: the index Remove's generator draws next
			var i int
			o.quiet(func() {
				saved := d.rng
				i = d.rand(len(keys))
				d.rng = saved
			})
			o.remove()
			keys = append(keys[:i], keys[i+1:]...)
		default: // find: a live key, or any key issued so far or not yet
			key := rng.Int63n(int64(len(keys)+d.cfg.Entries)) - 8
			if rng.Intn(2) == 0 && len(keys) > 0 {
				key = keys[rng.Intn(len(keys))]
			}
			at := -1
			for i, k := range keys {
				if k == key {
					at = i
				}
			}
			before := current()
			if got := o.find(key); got != (at >= 0) {
				t.Fatalf("seed %d op %d: Find(%d) = %v, want %v", seed, op, key, got, at >= 0)
			}
			now := current()
			if at < 0 {
				misses++
				if now != before {
					t.Fatalf("seed %d op %d: a missed Find(%d) moved current from %d to %d", seed, op, key, before, now)
				}
				break
			}
			hits++
			var entry core.Ref
			var got int64
			o.quiet(func() {
				entry = d.kit.ListGet(rt.GetRef(d.Ref(), d.dEntries), at)
				got = rt.GetInt(now, d.eKey)
			})
			if now != entry || got != key {
				t.Fatalf("seed %d op %d: Find(%d) left current %d with key %d, want entry %d at index %d",
					seed, op, key, now, got, entry, at)
			}
		}
		after(op)
		var n int
		o.quiet(func() { n = d.Len() })
		if n != len(keys) {
			t.Fatalf("seed %d op %d: Len = %d, model has %d", seed, op, n, len(keys))
		}
	}
	if hits == 0 || misses == 0 {
		t.Errorf("seed %d: %d hits and %d misses, want both", seed, hits, misses)
	}
	if len(keys) <= 2*collections.ListBlock {
		t.Errorf("seed %d: the list ended at %d entries, want more than two scan blocks", seed, len(keys))
	}
}
