package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/jbb"
)

// BenchmarkTraceThroughput measures marking throughput — marked words per
// second of collection wall time — of one whole-heap stop-the-world trace on
// the pseudojbb shape (bench/'s per-workload counterpart is
// gc.mark_mwords_per_s). The build is outside the timed region; each
// iteration re-collects the same quiescent live graph, so ns/op is pure
// collection cost.
func BenchmarkTraceThroughput(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		rt := core.New(core.Config{HeapWords: 1 << 18, Mode: core.Infrastructure})
		bench := jbb.New(rt, jbb.Config{ClearLastOrder: true, ClearOldCompany: true})
		for i := 0; i < 40; i++ {
			bench.RunTransactions(25)
		}
		if err := rt.GC(); err != nil {
			b.Fatal(err)
		}
		before := rt.Stats().GC.MarkedWords

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
			b.ReportMetric(float64(marked)/float64(b.N), "words/gc")
		}
	})
}
