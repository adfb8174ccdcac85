package workloads

import (
	"math/rand"

	"repro/internal/collections"
	"repro/internal/core"
)

func init() { register(func() Workload { return newPmd() }) }

// pmd models the DaCapo source-code analyzer: per iteration it builds an
// AST for a synthetic compilation unit, runs a set of long-lived rules
// over it (deep traversals), and accumulates violation records into a
// report that survives a few iterations before being flushed — mixed
// short-lived trees plus a trickle of medium-lived findings.
type pmd struct {
	r   *rand.Rand
	kit *collections.Kit

	node  *core.Class
	nKids uint16
	nKind uint16

	finding *core.Class
	fNode   uint16
	fRule   uint16

	report *core.Global
}

const (
	pmdRules     = 12
	pmdUnits     = 6
	pmdFlushLen  = 800
	pmdASTDepth  = 6
	pmdASTFanout = 4
)

func newPmd() *pmd { return &pmd{r: rng("pmd")} }

func (w *pmd) Name() string   { return "pmd" }
func (w *pmd) HeapWords() int { return 1 << 17 }

func (w *pmd) Setup(rt *core.Runtime, th *core.Thread) {
	w.kit = collections.NewKit(rt)
	w.node = rt.DefineClass("pmd.ASTNode",
		core.RefField("children"), core.DataField("kind"))
	w.nKids = w.node.MustFieldIndex("children")
	w.nKind = w.node.MustFieldIndex("kind")

	w.finding = rt.DefineClass("pmd.Finding",
		core.RefField("node"), core.DataField("rule"))
	w.fNode = w.finding.MustFieldIndex("node")
	w.fRule = w.finding.MustFieldIndex("rule")

	w.report = rt.AddGlobal("pmd.report")
	setNew(th, w.report, w.kit.NewList)
}

func (w *pmd) buildAST(rt *core.Runtime, th *core.Thread, depth int) core.Ref {
	f := th.PushFrame(2)
	defer th.PopFrame()
	n := th.New(w.node)
	f.SetLocal(0, n)
	rt.SetInt(n, w.nKind, int64(w.r.Intn(32)))
	if depth > 0 && w.r.Intn(4) > 0 {
		kids := th.NewRefArray(pmdASTFanout)
		rt.SetRef(f.Local(0), w.nKids, kids)
		for i := 0; i < pmdASTFanout; i++ {
			c := w.buildAST(rt, th, depth-1)
			f.SetLocal(1, c)
			rt.ArrSetRef(rt.GetRef(f.Local(0), w.nKids), i, f.Local(1))
		}
	}
	return f.Local(0)
}

// runRule walks the AST; nodes whose kind matches the rule yield findings.
// Findings reference their AST node, keeping a slice of each dead tree
// alive in the report — the medium-lifetime trickle.
func (w *pmd) runRule(rt *core.Runtime, th *core.Thread, ast core.Ref, rule int64) {
	if ast == core.Nil {
		return
	}
	if rt.GetInt(ast, w.nKind)%pmdRules == rule {
		f := th.PushFrame(2)
		f.SetLocal(0, ast)
		fd := th.New(w.finding)
		f.SetLocal(1, fd)
		rt.SetRef(fd, w.fNode, f.Local(0))
		rt.SetInt(fd, w.fRule, rule)
		w.kit.ListAdd(th, w.report.Get(), f.Local(1))
		th.PopFrame()
	}
	kids := rt.GetRef(ast, w.nKids)
	if kids != core.Nil {
		for i, n := 0, rt.ArrLen(kids); i < n; i++ {
			w.runRule(rt, th, rt.ArrGetRef(kids, i), rule)
		}
	}
}

func (w *pmd) Iterate(rt *core.Runtime, th *core.Thread) {
	for u := 0; u < pmdUnits; u++ {
		f := th.PushFrame(1)
		ast := w.buildAST(rt, th, pmdASTDepth)
		f.SetLocal(0, ast)
		for rule := int64(0); rule < pmdRules; rule++ {
			w.runRule(rt, th, f.Local(0), rule)
		}
		th.PopFrame()
	}
	// Flush the report when it grows too large.
	if rep := w.report.Get(); w.kit.ListLen(rep) > pmdFlushLen {
		w.kit.ListClear(rep)
	}
}
