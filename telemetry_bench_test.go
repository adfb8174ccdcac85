package repro

// Telemetry overhead benchmark: pseudojbb (the paper's heaviest workload)
// in the Infrastructure configuration with telemetry disabled, ring-only,
// and streaming NDJSON to a discarded sink. The published figures run with
// telemetry off; bench/ records the enabled overhead per workload as
// telemetry.overhead_frac.
//
//	go test -run '^$' -bench BenchmarkTelemetry -benchmem .

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func BenchmarkTelemetry(b *testing.B) {
	cases := []struct {
		label string
		tele  *telemetry.Config
	}{
		{"off", nil},
		{"ring", &telemetry.Config{}},
		{"ndjson", &telemetry.Config{Sink: io.Discard}},
	}
	f := workloads.ByName("pseudojbb")
	for _, tc := range cases {
		b.Run(tc.label, func(b *testing.B) {
			w := f()
			rt := core.New(core.Config{
				HeapWords: w.HeapWords(),
				Mode:      core.Infrastructure,
				Telemetry: tc.tele,
			})
			th := rt.MainThread()
			w.Setup(rt, th)
			for i := 0; i < 3; i++ {
				w.Iterate(rt, th)
			}
			gc0 := rt.Stats().GC.GCTime
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Iterate(rt, th)
			}
			b.StopTimer()
			st := rt.Stats()
			gcMS := (st.GC.GCTime - gc0).Seconds() * 1000 / float64(b.N)
			b.ReportMetric(gcMS, "gc-ms/op")
			if tc.tele != nil {
				m := rt.Metrics()
				b.ReportMetric(float64(m.Events)/float64(b.N+3), "events/op")
			}
		})
	}
}
