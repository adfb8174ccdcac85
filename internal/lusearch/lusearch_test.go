package lusearch

import (
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

// newEngine builds an engine on a fresh runtime. Under -short (make torture)
// the corpus is a tenth of its default size.
func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if testing.Short() && cfg.Documents == 0 {
		cfg.Documents = 200
	}
	rt := core.New(core.Config{HeapWords: 1 << 19, Mode: core.Infrastructure})
	return New(rt, cfg)
}

// queries is n queries per thread, or 2 under -short.
func queries(n int) int {
	if testing.Short() {
		return 2
	}
	return n
}

func TestPerThreadSearchersViolation(t *testing.T) {
	// The paper's finding: "for most of the benchmark's execution, 32
	// instances of IndexSearcher are live, one for each thread".
	e := newEngine(t, Config{Threads: 32, AssertSingleSearcher: true})
	e.Run(queries(50), func() {
		if err := e.Runtime().GC(); err != nil {
			t.Error(err)
		}
	})
	vs := e.Runtime().Violations()
	var hit *report.Violation
	for _, v := range vs {
		if v.Kind == report.TooManyInstances && v.Class == "IndexSearcher" {
			hit = v
		}
	}
	if hit == nil {
		t.Fatal("32 live searchers not reported")
	}
	if hit.Count != 32 || hit.Limit != 1 {
		t.Errorf("count=%d limit=%d, want 32/1", hit.Count, hit.Limit)
	}
}

func TestSharedSearcherFix(t *testing.T) {
	// The recommended repair: "using only one instance of IndexSearcher
	// and sharing it among the threads".
	e := newEngine(t, Config{Threads: 32, SharedSearcher: true, AssertSingleSearcher: true})
	e.Run(queries(50), func() {
		if err := e.Runtime().GC(); err != nil {
			t.Error(err)
		}
	})
	for _, v := range e.Runtime().Violations() {
		t.Errorf("fixed program violated:\n%s", v.Format())
	}
}

func TestSearchResultsIdenticalAcrossConfigs(t *testing.T) {
	// The fix must not change behavior: same queries, same best weights.
	resA := collectResults(t, Config{Threads: 4})
	resB := collectResults(t, Config{Threads: 4, SharedSearcher: true})
	if len(resA) != len(resB) {
		t.Fatalf("result counts differ: %d vs %d", len(resA), len(resB))
	}
	for term, w := range resA {
		if resB[term] != w {
			t.Errorf("term %d: %d vs %d", term, w, resB[term])
		}
	}
}

// collectResults runs single-threaded deterministic queries directly.
func collectResults(t *testing.T, cfg Config) map[int64]int64 {
	t.Helper()
	e := newEngine(t, cfg)
	th := e.rt.MainThread()
	f := th.PushFrame(1)
	defer th.PopFrame()
	if cfg.SharedSearcher {
		f.SetLocal(0, e.shared.Get())
	} else {
		e.newSearcher(f, 0)
	}
	out := map[int64]int64{}
	for term := int64(0); term < int64(e.terms); term++ {
		out[term] = e.search(f.Local(0), term)
	}
	return out
}

func TestSearchersCollectedAfterRun(t *testing.T) {
	// Once the threads pop their frames, the per-thread searchers die.
	e := newEngine(t, Config{Threads: 8})
	e.Run(queries(10), nil)
	rt := e.Runtime()
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if got := rt.AllocatedInstanceCount(e.IndexSearcher); got != 0 {
		t.Errorf("%d searchers survive after run", got)
	}
}

func TestConcurrentSearchSafety(t *testing.T) {
	// Heavier concurrent run with GC pressure: must not corrupt or race
	// (run under -race in CI).
	e := newEngine(t, Config{Threads: 16})
	e.Run(queries(200), func() { e.Runtime().GC() })
	if e.Runtime().Stats().Heap.LiveWords == 0 {
		t.Error("index vanished")
	}
}
