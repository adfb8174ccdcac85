package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/jbb"
	"repro/internal/report"
	"repro/internal/staleness"
)

// BenchmarkAssertTrace measures per-assertion-kind collection overhead on
// the pseudojbb shape: trace words per second with the engine unarmed
// versus armed with a persistent population of each assertion kind (bench/
// records the armed cycle as gc.armed_cycle_us).
//
// Each armed variant roots 400 objects under one assertion kind so every
// collection drives the corresponding hot path:
//
//   - dead: 400 dead-asserted reachable objects → 400 DeadReachable
//     reports per cycle through the per-cycle dead dedupe map;
//   - region: the same population allocated inside an assert-alldead
//     bracket → RegionSurvivor reports through the region header bit;
//   - unshared: 400 doubly-referenced unshared-asserted objects →
//     SharedObject reports through the shared dedupe map;
//   - owned: 400 ownees visible from a root outside their owner →
//     UnownedOwnee reports through the ownee index and improper map.
//
// Violations are swallowed by a counting handler, so the measured delta
// against "unarmed" is detection and dedupe cost, not reporting I/O.
func BenchmarkAssertTrace(b *testing.B) {
	const armed = 400
	kinds := []string{"unarmed", "dead", "region", "unshared", "owned"}
	for _, kind := range kinds {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			var fired int
			rt := core.New(core.Config{
				HeapWords: 1 << 18,
				Mode:      core.Infrastructure,
				Handler: report.HandlerFunc(func(*report.Violation) report.Action {
					fired++
					return report.Continue
				}),
			})
			bench := jbb.New(rt, jbb.Config{ClearLastOrder: true, ClearOldCompany: true})
			th := rt.MainThread()
			for i := 0; i < 20; i++ {
				bench.RunTransactions(25)
			}

			// The armed population: objects rooted through a global
			// array so they survive (and re-report) every cycle.
			node := rt.DefineClass("ABNode", core.RefField("next"))
			pinCount := armed
			if kind == "unshared" {
				pinCount = 2 * armed // second slot = second reference
			}
			pin := rt.AddGlobal("asserttrace.pin")
			arr := th.NewRefArray(pinCount + 1)
			pin.Set(arr)
			if kind == "region" {
				if err := th.StartRegion(); err != nil {
					b.Fatal(err)
				}
			}
			var owner core.Ref
			if kind == "owned" {
				owner = th.New(node)
				rt.ArrSetRef(arr, pinCount, owner)
			}
			for i := 0; i < armed; i++ {
				r := th.New(node)
				rt.ArrSetRef(arr, i, r)
				switch kind {
				case "dead":
					if err := rt.AssertDead(r); err != nil {
						b.Fatal(err)
					}
				case "unshared":
					rt.ArrSetRef(arr, armed+i, r)
					if err := rt.AssertUnshared(r); err != nil {
						b.Fatal(err)
					}
				case "owned":
					if err := rt.AssertOwnedBy(owner, r); err != nil {
						b.Fatal(err)
					}
				}
			}
			if kind == "region" {
				if err := th.AssertAllDead(); err != nil {
					b.Fatal(err)
				}
			}
			if err := rt.GC(); err != nil {
				b.Fatal(err)
			}
			before := rt.Stats().GC.MarkedWords
			fired = 0

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.GC(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()

			marked := rt.Stats().GC.MarkedWords - before
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(marked)/secs/1e6, "Mwords/s")
			}
			b.ReportMetric(float64(fired)/float64(b.N), "reports/gc")
		})
	}
}

// newStalenessWorld builds a runtime with a pseudojbb live graph and
// collects the refs of every live object for Touch traffic.
func newStalenessWorld(b *testing.B) (*core.Runtime, []core.Ref) {
	b.Helper()
	rt := core.New(core.Config{HeapWords: 1 << 18, Mode: core.Infrastructure})
	bench := jbb.New(rt, jbb.Config{ClearLastOrder: true, ClearOldCompany: true})
	for i := 0; i < 20; i++ {
		bench.RunTransactions(25)
	}
	if err := rt.GC(); err != nil {
		b.Fatal(err)
	}
	var refs []core.Ref
	for _, o := range rt.LiveSet() {
		refs = append(refs, o.Ref)
	}
	return rt, refs
}

// BenchmarkStalenessTouch measures the profiler's per-access cost: one
// Touch on a live-object working set.
func BenchmarkStalenessTouch(b *testing.B) {
	_, refs := newStalenessWorld(b)
	tr := staleness.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Touch(refs[i%len(refs)])
	}
}

// BenchmarkStalenessAdvance measures the post-collection aging pause: one
// Advance over the pseudojbb live set.
func BenchmarkStalenessAdvance(b *testing.B) {
	rt, refs := newStalenessWorld(b)
	tr := staleness.New(3)
	for _, r := range refs {
		tr.Touch(r)
	}
	tr.Advance(rt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Advance(rt)
	}
}
