package workloads

import (
	"math/rand"

	"repro/internal/collections"
	"repro/internal/core"
)

func init() { register(func() Workload { return newLusearchWL() }) }

// lusearch models the DaCapo text-search benchmark: queries against a
// fixed, prebuilt inverted index. Per query it fetches posting lists and
// intersects them into short-lived result lists — a read-mostly profile
// over a large stable heap with small bursts of transient allocation.
// (The full multi-threaded search engine with the paper's IndexSearcher
// case study lives in internal/lusearch; this workload is the Figure 2/3
// heap profile.)
type lusearchWL struct {
	r   *rand.Rand
	kit *collections.Kit

	hit   *core.Class
	hDoc  uint16
	hRank uint16

	index *core.Global
	terms int64
}

const (
	lusearchDocs      = 3000
	lusearchQueryPerI = 400
)

func newLusearchWL() *lusearchWL { return &lusearchWL{r: rng("lusearch")} }

func (w *lusearchWL) Name() string   { return "lusearch" }
func (w *lusearchWL) HeapWords() int { return 208 << 10 }

func (w *lusearchWL) Setup(rt *core.Runtime, th *core.Thread) {
	w.kit = collections.NewKit(rt)
	w.hit = rt.DefineClass("lusearch.Hit",
		core.DataField("doc"), core.DataField("rank"))
	w.hDoc = w.hit.MustFieldIndex("doc")
	w.hRank = w.hit.MustFieldIndex("rank")

	w.terms = int64(len(words) * 6)
	w.index = rt.AddGlobal("lusearch.index")
	setNew(th, w.index, w.kit.NewMap)
	idx := w.index.Get()

	// Build the fixed index: each doc contributes a handful of terms.
	for doc := int64(0); doc < lusearchDocs; doc++ {
		for i := 0; i < 6; i++ {
			term := int64(w.r.Int63n(w.terms))
			list, ok := w.kit.MapGet(idx, term)
			if !ok {
				f := th.PushFrame(1)
				w.kit.MapPut(th, idx, term, w.kit.NewList(f, 0))
				th.PopFrame()
			}
			f := th.PushFrame(1)
			h := th.New(w.hit)
			rt.SetInt(h, w.hDoc, doc)
			rt.SetInt(h, w.hRank, int64(w.r.Intn(100)))
			f.SetLocal(0, h)
			list, _ = w.kit.MapGet(idx, term)
			w.kit.ListAdd(th, list, f.Local(0))
			th.PopFrame()
		}
	}
}

func (w *lusearchWL) Iterate(rt *core.Runtime, th *core.Thread) {
	idx := w.index.Get()
	var sum uint64
	for q := 0; q < lusearchQueryPerI; q++ {
		// Two-term conjunctive query: intersect posting lists into a
		// short-lived result list.
		t1 := int64(w.r.Int63n(w.terms))
		t2 := int64(w.r.Int63n(w.terms))
		l1, ok1 := w.kit.MapGet(idx, t1)
		l2, ok2 := w.kit.MapGet(idx, t2)
		if !ok1 || !ok2 {
			continue
		}
		docs2 := map[int64]bool{}
		w.kit.ListEach(l2, func(_ int, h core.Ref) {
			docs2[rt.GetInt(h, w.hDoc)] = true
		})

		f := th.PushFrame(2)
		w.kit.NewList(f, 0)
		w.kit.ListEach(l1, func(_ int, h core.Ref) {
			if docs2[rt.GetInt(h, w.hDoc)] {
				// Materialize a fresh scored hit for the result set.
				scored := th.New(w.hit)
				rt.SetInt(scored, w.hDoc, rt.GetInt(h, w.hDoc))
				rt.SetInt(scored, w.hRank, rt.GetInt(h, w.hRank)*2)
				f.SetLocal(1, scored)
				w.kit.ListAdd(th, f.Local(0), f.Local(1))
			}
		})
		w.kit.ListEach(f.Local(0), func(_ int, h core.Ref) {
			sum = checksum(sum, uint64(rt.GetInt(h, w.hRank)))
		})
		th.PopFrame()
	}
	_ = sum
}
