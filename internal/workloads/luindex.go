package workloads

import (
	"math/rand"

	"repro/internal/collections"
	"repro/internal/core"
)

func init() { register(func() Workload { return newLuindex() }) }

// luindex models the DaCapo index-building benchmark: a long-lived,
// steadily growing inverted index (term -> posting list), fed by batches
// of synthetic documents. Growth-dominated profile: most allocation is
// promoted into the live set rather than dying young, with periodic index
// compaction releasing older segments.
type luindex struct {
	r   *rand.Rand
	kit *collections.Kit

	posting *core.Class
	pDoc    uint16
	pFreq   uint16

	index  *core.Global
	nextID int64
}

const (
	luindexDocsPerIt = 60
	luindexDocWords  = 40
	luindexSegment   = 150 // docs per segment before compaction
)

func newLuindex() *luindex { return &luindex{r: rng("luindex")} }

func (w *luindex) Name() string   { return "luindex" }
func (w *luindex) HeapWords() int { return 1 << 17 }

func (w *luindex) Setup(rt *core.Runtime, th *core.Thread) {
	w.kit = collections.NewKit(rt)
	w.posting = rt.DefineClass("luindex.Posting",
		core.DataField("doc"), core.DataField("freq"))
	w.pDoc = w.posting.MustFieldIndex("doc")
	w.pFreq = w.posting.MustFieldIndex("freq")

	// term id -> ArrayList of postings.
	w.index = rt.AddGlobal("luindex.index")
	setNew(th, w.index, w.kit.NewMap)
}

func (w *luindex) Iterate(rt *core.Runtime, th *core.Thread) {
	idx := w.index.Get()
	for d := 0; d < luindexDocsPerIt; d++ {
		doc := w.nextID
		w.nextID++

		// Tokenize a synthetic document into term frequencies.
		freqs := map[int64]int64{}
		for i := 0; i < luindexDocWords; i++ {
			freqs[int64(w.r.Intn(len(words)*8))]++
		}

		// Merge into the inverted index.
		for term, freq := range freqs {
			list, ok := w.kit.MapGet(idx, term)
			if !ok {
				f := th.PushFrame(1)
				w.kit.MapPut(th, idx, term, w.kit.NewList(f, 0))
				th.PopFrame()
			}
			f := th.PushFrame(1)
			p := th.New(w.posting)
			rt.SetInt(p, w.pDoc, doc)
			rt.SetInt(p, w.pFreq, freq)
			f.SetLocal(0, p)
			// Re-fetch the list: the posting allocation may have GC'd.
			list, _ = w.kit.MapGet(idx, term)
			w.kit.ListAdd(th, list, f.Local(0))
			th.PopFrame()
		}

		// Segment compaction: drop postings older than the segment
		// horizon so the index does not grow without bound.
		if doc%luindexSegment == luindexSegment-1 {
			horizon := doc - luindexSegment
			w.kit.MapEach(idx, func(_ int64, list core.Ref) {
				for i := w.kit.ListLen(list) - 1; i >= 0; i-- {
					p := w.kit.ListGet(list, i)
					if rt.GetInt(p, w.pDoc) < horizon {
						w.kit.ListRemoveAt(list, i)
					}
				}
			})
		}
	}
}
