package repro

// Benchmarks regenerating the paper's figures. Each figure has a bench
// whose sub-benchmarks cover the benchmark x configuration grid; the
// GC-time figures (3 and 5) are the "gc-ms/op" metric reported by the
// corresponding run-time benches (2 and 4).
//
//	go test -bench 'Fig2' -benchmem        Figures 2 and 3
//	go test -bench 'Fig4' -benchmem        Figures 4 and 5
//	go test -bench 'Ablation'              design-decision ablations
//
// cmd/gcbench prints the same data as figure-style normalized tables.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// benchSubject runs a harness subject under the Go benchmark driver,
// reporting GC time as a secondary metric.
func benchSubject(b *testing.B, s harness.Subject) {
	b.Helper()
	rt := core.New(core.Config{
		HeapWords: s.HeapWords,
		Mode:      s.Mode,
	})
	iterate := s.Build(rt)
	// Warm to steady state (the paper discards early iterations).
	for i := 0; i < 3; i++ {
		iterate()
	}
	gc0 := rt.Stats().GC.GCTime
	colls0 := rt.Stats().GC.Collections
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iterate()
	}
	b.StopTimer()
	st := rt.Stats()
	gcMS := (st.GC.GCTime - gc0).Seconds() * 1000 / float64(b.N)
	b.ReportMetric(gcMS, "gc-ms/op")
	b.ReportMetric(float64(st.GC.Collections-colls0)/float64(b.N), "gcs/op")
}

// BenchmarkFig2 covers Figures 2 and 3: every suite workload in the Base
// and Infrastructure configurations. Figure 2 is ns/op (total time);
// Figure 3 is the gc-ms/op metric.
func BenchmarkFig2(b *testing.B) {
	for _, name := range workloads.Names() {
		f := workloads.ByName(name)
		for _, mode := range []core.Mode{core.Base, core.Infrastructure} {
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				benchSubject(b, workloadSubjectFor(f, mode))
			})
		}
	}
}

// workloadSubjectFor mirrors the harness adapter for bench use.
func workloadSubjectFor(f workloads.Factory, mode core.Mode) harness.Subject {
	w := f()
	return harness.Subject{
		Name:      w.Name(),
		HeapWords: w.HeapWords(),
		Mode:      mode,
		Build: func(rt *core.Runtime) func() {
			inst := f()
			th := rt.MainThread()
			inst.Setup(rt, th)
			return func() { inst.Iterate(rt, th) }
		},
	}
}

// BenchmarkFig4 covers Figures 4 and 5: the instrumented applications
// (_209_db and pseudojbb) in the Base, Infrastructure and WithAssertions
// configurations. Figure 4 is ns/op; Figure 5 is gc-ms/op.
func BenchmarkFig4(b *testing.B) {
	type cfg struct {
		label string
		mode  core.Mode
		wa    bool
	}
	cfgs := []cfg{
		{"Base", core.Base, false},
		{"Infrastructure", core.Infrastructure, false},
		{"WithAssertions", core.Infrastructure, true},
	}
	for _, build := range []func(core.Mode, bool) harness.Subject{
		harness.DBSubject, harness.JBBSubject,
	} {
		for _, c := range cfgs {
			s := build(c.mode, c.wa)
			b.Run(s.Name+"/"+c.label, func(b *testing.B) {
				benchSubject(b, s)
			})
		}
	}
}
