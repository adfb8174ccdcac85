// Package lusearch reproduces the DaCapo lusearch case study of the
// paper's Section 3.2.2: a multi-threaded text-search engine over a
// prebuilt inverted index. The Lucene documentation recommends opening a
// single IndexSearcher and sharing it across threads; the benchmark
// instead opens one per thread. Instrumenting the program with
// assert-instances(IndexSearcher, 1) reveals 32 live searchers — the
// paper's finding — and the SharedSearcher configuration applies the
// recommended fix.
package lusearch

import (
	"sync"

	"repro/internal/collections"
	"repro/internal/core"
)

// Config shapes the engine.
type Config struct {
	// Threads is the number of search threads (default 32, as in the
	// paper's run).
	Threads int
	// Documents is the corpus size (default 2000).
	Documents int
	// SharedSearcher applies the Lucene-recommended fix: one searcher
	// shared by every thread.
	SharedSearcher bool
	// AssertSingleSearcher installs assert-instances(IndexSearcher, 1).
	AssertSingleSearcher bool
}

func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 32
	}
	if c.Documents == 0 {
		c.Documents = 2000
	}
	return c
}

// Engine is a configured search engine bound to a runtime.
type Engine struct {
	rt  *core.Runtime
	kit *collections.Kit
	cfg Config

	// IndexSearcher: index (the shared map), queriesRun.
	IndexSearcher *core.Class
	isIndex       uint16
	isCount       uint16

	// Posting: doc, weight.
	posting *core.Class
	pDoc    uint16
	pWeight uint16

	index  *core.Global
	shared *core.Global // the fix's single searcher
	terms  int
}

// vocabulary is the indexed term space.
var vocabulary = []string{
	"gc", "assertion", "heap", "collector", "trace", "object", "reference",
	"dead", "owner", "region", "leak", "path", "root", "mark", "sweep",
	"class", "instance", "barrier", "nursery", "mature", "violation", "scan",
}

// New builds the index on the runtime's main thread.
func New(rt *core.Runtime, cfg Config) *Engine {
	e := &Engine{rt: rt, kit: collections.NewKit(rt), cfg: cfg.withDefaults()}

	e.posting = rt.DefineClass("Posting",
		core.DataField("doc"), core.DataField("weight"))
	e.pDoc = e.posting.MustFieldIndex("doc")
	e.pWeight = e.posting.MustFieldIndex("weight")

	e.IndexSearcher = rt.DefineClass("IndexSearcher",
		core.RefField("index"), core.DataField("queriesRun"))
	e.isIndex = e.IndexSearcher.MustFieldIndex("index")
	e.isCount = e.IndexSearcher.MustFieldIndex("queriesRun")

	e.terms = len(vocabulary) * 4
	e.index = rt.AddGlobal("lusearch.index")
	e.shared = rt.AddGlobal("lusearch.sharedSearcher")

	th := rt.MainThread()
	f := th.PushFrame(1)
	defer th.PopFrame()
	e.index.Set(e.kit.NewMap(f, 0))
	e.buildIndex(th)

	if e.cfg.AssertSingleSearcher {
		if err := rt.AssertInstances(e.IndexSearcher, 1); err != nil {
			panic(err)
		}
	}
	if e.cfg.SharedSearcher {
		e.shared.Set(e.newSearcher(f, 0))
	}
	return e
}

// Runtime returns the underlying runtime.
func (e *Engine) Runtime() *core.Runtime { return e.rt }

// buildIndex populates term -> posting-list entries.
func (e *Engine) buildIndex(th *core.Thread) {
	rt := e.rt
	idx := e.index.Get()
	rng := uint64(0x5eed)
	next := func(n int) int {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return int((rng * 0x2545F4914F6CDD1D) >> 33 % uint64(n))
	}
	for doc := 0; doc < e.cfg.Documents; doc++ {
		for i := 0; i < 8; i++ {
			term := int64(next(e.terms))
			list, ok := e.kit.MapGet(idx, term)
			if !ok {
				f := th.PushFrame(1)
				e.kit.MapPut(th, idx, term, e.kit.NewList(f, 0))
				th.PopFrame()
			}
			f := th.PushFrame(1)
			p := th.New(e.posting)
			rt.SetInt(p, e.pDoc, int64(doc))
			rt.SetInt(p, e.pWeight, int64(next(100)))
			f.SetLocal(0, p)
			list, _ = e.kit.MapGet(idx, term)
			e.kit.ListAdd(th, list, f.Local(0))
			th.PopFrame()
		}
	}
}

// newSearcher opens an IndexSearcher over the index into local slot i of f.
func (e *Engine) newSearcher(f *core.Frame, i int) core.Ref {
	s := f.New(i, e.IndexSearcher)
	e.rt.SetRef(s, e.isIndex, e.index.Get())
	return s
}

// search runs one term query through a searcher and returns the best
// weight.
func (e *Engine) search(searcher core.Ref, term int64) int64 {
	rt := e.rt
	idx := rt.GetRef(searcher, e.isIndex)
	rt.SetInt(searcher, e.isCount, rt.GetInt(searcher, e.isCount)+1)
	list, ok := e.kit.MapGet(idx, term)
	if !ok {
		return -1
	}
	best := int64(-1)
	e.kit.ListEach(list, func(_ int, p core.Ref) {
		if w := rt.GetInt(p, e.pWeight); w > best {
			best = w
		}
	})
	return best
}

// Run drives the search phase: every thread opens (or shares) a searcher,
// all threads rendezvous with their searchers live, midRun is invoked on
// the main goroutine (the case study calls rt.GC() here to count live
// searchers), and then the queries run to completion.
func (e *Engine) Run(queriesPerThread int, midRun func()) {
	cfg := e.cfg
	ready := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup

	// Create-then-start, as rt.NewThread requires: the mutator Threads are
	// made here on the calling goroutine before their driver goroutines
	// exist, mirroring how a managed language constructs a Thread before
	// calling start().
	ths := make([]*core.Thread, cfg.Threads)
	for t := range ths {
		ths[t] = e.rt.NewThread("searcher")
	}

	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := ths[id]
			f := th.PushFrame(1)
			defer th.PopFrame()

			if cfg.SharedSearcher {
				f.SetLocal(0, e.shared.Get())
			} else {
				// The benchmark's behavior: one searcher per thread.
				e.newSearcher(f, 0)
			}
			ready <- struct{}{}
			<-release

			seed := uint64(id + 1)
			for q := 0; q < queriesPerThread; q++ {
				seed ^= seed >> 12
				seed ^= seed << 25
				seed ^= seed >> 27
				e.search(f.Local(0), int64((seed*0x2545F4914F6CDD1D)>>33%uint64(e.terms)))
			}
		}(t)
	}

	for t := 0; t < cfg.Threads; t++ {
		<-ready
	}
	if midRun != nil {
		midRun()
	}
	close(release)
	wg.Wait()
}
