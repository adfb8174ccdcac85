package workloads

import (
	"testing"

	"repro/internal/core"
)

func TestSuiteComposition(t *testing.T) {
	names := Names()
	if len(names) < 14 {
		t.Fatalf("suite has %d workloads, want >= 14", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate workload %q", n)
		}
		seen[n] = true
		if ByName(n) == nil {
			t.Errorf("ByName(%q) = nil", n)
		}
	}
	// The paper's headline benchmarks must be present.
	for _, n := range []string{"bloat", "db", "pseudojbb", "lusearch", "compress", "mpegaudio"} {
		if !seen[n] {
			t.Errorf("suite missing %q", n)
		}
	}
	if ByName("no-such-benchmark") != nil {
		t.Error("ByName on unknown name returned non-nil")
	}
}

func TestFactoriesReturnFreshInstances(t *testing.T) {
	for _, f := range Suite() {
		a, b := f(), f()
		if a == b {
			t.Errorf("%s: factory returned a shared instance", a.Name())
		}
		if a.HeapWords() <= 0 {
			t.Errorf("%s: HeapWords = %d", a.Name(), a.HeapWords())
		}
	}
}

// runWorkload executes setup plus a few iterations in the given mode (one
// under -short, as make torture runs) and returns the runtime for
// inspection.
func runWorkload(t *testing.T, f Factory, mode core.Mode, iters int) *core.Runtime {
	t.Helper()
	if testing.Short() {
		iters = 1
	}
	w := f()
	rt := core.New(core.Config{HeapWords: w.HeapWords(), Mode: mode})
	th := rt.MainThread()
	w.Setup(rt, th)
	for i := 0; i < iters; i++ {
		w.Iterate(rt, th)
	}
	return rt
}

func TestWorkloadsRunBaseMode(t *testing.T) {
	for _, f := range Suite() {
		f := f
		t.Run(f().Name()+"/base", func(t *testing.T) {
			t.Parallel()
			rt := runWorkload(t, f, core.Base, 3)
			st := rt.Stats()
			if st.Heap.TotalAllocs == 0 {
				t.Error("workload allocated nothing")
			}
			if st.Heap.LiveWords > st.Heap.CapacityWords {
				t.Error("accounting out of range")
			}
		})
	}
}

func TestWorkloadsRunInfrastructureMode(t *testing.T) {
	for _, f := range Suite() {
		f := f
		t.Run(f().Name()+"/infra", func(t *testing.T) {
			t.Parallel()
			rt := runWorkload(t, f, core.Infrastructure, 3)
			// Workloads register no assertions: the infrastructure must
			// report no violations.
			if n := len(rt.Violations()); n != 0 {
				t.Errorf("spurious violations: %d", n)
			}
		})
	}
}

func TestWorkloadsProvokeGC(t *testing.T) {
	// Across several iterations every workload's allocation volume must
	// exceed its heap, so automatic collections run — otherwise Figures
	// 2/3 would measure nothing.
	if testing.Short() {
		t.Skip("allocates past every workload's heap")
	}
	for _, f := range Suite() {
		f := f
		t.Run(f().Name(), func(t *testing.T) {
			t.Parallel()
			w := f()
			rt := core.New(core.Config{HeapWords: w.HeapWords(), Mode: core.Base})
			th := rt.MainThread()
			w.Setup(rt, th)
			for i := 0; i < 12; i++ {
				w.Iterate(rt, th)
				if rt.Stats().GC.Collections > 0 {
					return
				}
			}
			t.Errorf("%s never triggered a collection in 12 iterations", w.Name())
		})
	}
}

func TestWorkloadMarkingEquivalence(t *testing.T) {
	// Base and Infrastructure collectors must retain the same number of
	// objects for the same (deterministic) workload.
	for _, name := range []string{"antlr", "bloat", "hsqldb", "jess"} {
		f := ByName(name)
		if f == nil {
			t.Fatalf("missing %q", name)
		}
		t.Run(name, func(t *testing.T) {
			rtBase := runWorkload(t, f, core.Base, 2)
			rtInfra := runWorkload(t, f, core.Infrastructure, 2)
			if err := rtBase.GC(); err != nil {
				t.Fatal(err)
			}
			if err := rtInfra.GC(); err != nil {
				t.Fatal(err)
			}
			b := rtBase.Stats().Heap.LiveObjects
			i := rtInfra.Stats().Heap.LiveObjects
			if b != i {
				t.Errorf("live objects differ: base %d vs infra %d", b, i)
			}
		})
	}
}
