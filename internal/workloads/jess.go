package workloads

import (
	"math/rand"

	"repro/internal/collections"
	"repro/internal/core"
)

func init() { register(func() Workload { return newJess() }) }

// jess models SPEC JVM98 _202_jess (an expert-system shell): a working
// memory of small fact objects churned by assert/retract cycles, with
// pattern matching building transient token chains that link matched
// facts — many small objects with moderate lifetimes and cross links.
type jess struct {
	r   *rand.Rand
	kit *collections.Kit

	fact  *core.Class
	fSlot uint16
	fVal  uint16

	token *core.Class
	tFact uint16
	tNext uint16

	wm *core.Global // working memory: ArrayList of facts
}

const (
	jessWMTarget   = 1500
	jessCyclesPerI = 30
	jessAsserts    = 60
)

func newJess() *jess { return &jess{r: rng("jess")} }

func (w *jess) Name() string   { return "jess" }
func (w *jess) HeapWords() int { return 1 << 16 }

func (w *jess) Setup(rt *core.Runtime, th *core.Thread) {
	w.kit = collections.NewKit(rt)
	w.fact = rt.DefineClass("jess.Fact",
		core.DataField("slot"), core.DataField("val"))
	w.fSlot = w.fact.MustFieldIndex("slot")
	w.fVal = w.fact.MustFieldIndex("val")

	w.token = rt.DefineClass("jess.Token",
		core.RefField("fact"), core.RefField("next"))
	w.tFact = w.token.MustFieldIndex("fact")
	w.tNext = w.token.MustFieldIndex("next")

	w.wm = rt.AddGlobal("jess.wm")
	setNew(th, w.wm, w.kit.NewList)
}

func (w *jess) Iterate(rt *core.Runtime, th *core.Thread) {
	wm := w.wm.Get()
	var sum uint64
	for cycle := 0; cycle < jessCyclesPerI; cycle++ {
		// Assert new facts.
		for i := 0; i < jessAsserts; i++ {
			f := th.PushFrame(1)
			fact := th.New(w.fact)
			rt.SetInt(fact, w.fSlot, int64(w.r.Intn(16)))
			rt.SetInt(fact, w.fVal, int64(w.r.Intn(1000)))
			f.SetLocal(0, fact)
			w.kit.ListAdd(th, wm, f.Local(0))
			th.PopFrame()
		}
		// Retract: keep working memory near its target size.
		for w.kit.ListLen(wm) > jessWMTarget {
			w.kit.ListRemoveAt(wm, w.r.Intn(w.kit.ListLen(wm)))
		}

		// Pattern match: build a token chain of facts matching a random
		// slot, then fire: fold values.
		slot := int64(w.r.Intn(16))
		f := th.PushFrame(2)
		var chain core.Ref
		w.kit.ListEach(wm, func(_ int, fact core.Ref) {
			if rt.GetInt(fact, w.fSlot) != slot {
				return
			}
			f.SetLocal(0, chain)
			tok := th.New(w.token)
			rt.SetRef(tok, w.tFact, fact)
			rt.SetRef(tok, w.tNext, f.Local(0))
			chain = tok
		})
		f.SetLocal(1, chain)
		for t := f.Local(1); t != core.Nil; t = rt.GetRef(t, w.tNext) {
			fact := rt.GetRef(t, w.tFact)
			sum = checksum(sum, uint64(rt.GetInt(fact, w.fVal)))
		}
		th.PopFrame()
	}
	_ = sum
}
