package workloads

import (
	"math/rand"

	"repro/internal/collections"
	"repro/internal/core"
)

func init() { register(func() Workload { return newJavac() }) }

// javac models SPEC JVM98 _213_javac: per iteration it "compiles" classes
// — building an AST, resolving names against a slowly growing long-lived
// symbol table, allocating type records, and emitting bytecode into data
// arrays. Mixed profile: transient trees, persistent symbols, data-array
// output.
type javac struct {
	r   *rand.Rand
	kit *collections.Kit

	sym   *core.Class
	sName uint16
	sType uint16

	node  *core.Class
	nKids uint16
	nSym  uint16

	symtab *core.Global
	nextID int64
}

const (
	javacClasses   = 4
	javacTreeDepth = 6
	javacSymCap    = 2500
)

func newJavac() *javac { return &javac{r: rng("javac")} }

func (w *javac) Name() string   { return "javac" }
func (w *javac) HeapWords() int { return 1 << 17 }

func (w *javac) Setup(rt *core.Runtime, th *core.Thread) {
	w.kit = collections.NewKit(rt)
	w.sym = rt.DefineClass("javac.Symbol",
		core.RefField("name"), core.DataField("type"))
	w.sName = w.sym.MustFieldIndex("name")
	w.sType = w.sym.MustFieldIndex("type")

	w.node = rt.DefineClass("javac.Tree",
		core.RefField("children"), core.RefField("sym"))
	w.nKids = w.node.MustFieldIndex("children")
	w.nSym = w.node.MustFieldIndex("sym")

	w.symtab = rt.AddGlobal("javac.symtab")
	setNew(th, w.symtab, w.kit.NewMap)
}

// declare interns a symbol, evicting old ones past the cap.
func (w *javac) declare(rt *core.Runtime, th *core.Thread) core.Ref {
	tab := w.symtab.Get()
	id := w.nextID
	w.nextID++
	f := th.PushFrame(2)
	defer th.PopFrame()
	name := th.NewString(sentence(w.r, 1))
	f.SetLocal(0, name)
	s := th.New(w.sym)
	rt.SetRef(s, w.sName, f.Local(0))
	rt.SetInt(s, w.sType, int64(w.r.Intn(16)))
	f.SetLocal(1, s)
	w.kit.MapPut(th, tab, id, f.Local(1))
	if id >= javacSymCap {
		w.kit.MapRemove(tab, id-javacSymCap)
	}
	return f.Local(1)
}

// parse builds an AST whose leaves resolve to symbols (existing or new).
func (w *javac) parse(rt *core.Runtime, th *core.Thread, depth int) core.Ref {
	f := th.PushFrame(2)
	defer th.PopFrame()
	n := th.New(w.node)
	f.SetLocal(0, n)
	if depth == 0 || w.r.Intn(5) == 0 {
		// Leaf: resolve against the symbol table (or declare).
		tab := w.symtab.Get()
		var s core.Ref
		if w.nextID > 0 && w.r.Intn(3) > 0 {
			s, _ = w.kit.MapGet(tab, w.nextID-w.r.Int63n(min64(w.nextID, javacSymCap))-1)
		}
		if s == core.Nil {
			s = w.declare(rt, th)
		}
		rt.SetRef(f.Local(0), w.nSym, s)
		return f.Local(0)
	}
	kids := th.NewRefArray(3)
	rt.SetRef(f.Local(0), w.nKids, kids)
	for i := 0; i < 3; i++ {
		c := w.parse(rt, th, depth-1)
		f.SetLocal(1, c)
		rt.ArrSetRef(rt.GetRef(f.Local(0), w.nKids), i, f.Local(1))
	}
	return f.Local(0)
}

// emit walks the AST producing "bytecode" words.
func (w *javac) emit(rt *core.Runtime, th *core.Thread, ast core.Ref) uint64 {
	f := th.PushFrame(2)
	defer th.PopFrame()
	f.SetLocal(0, ast)
	code := th.NewDataArray(512)
	f.SetLocal(1, code)
	pc := 0
	var walk func(n core.Ref)
	walk = func(n core.Ref) {
		if n == core.Nil || pc >= 512 {
			return
		}
		if s := rt.GetRef(n, w.nSym); s != core.Nil {
			rt.ArrSetData(code, pc, uint64(rt.GetInt(s, w.sType)))
			pc++
		}
		kids := rt.GetRef(n, w.nKids)
		if kids != core.Nil {
			for i, c := 0, rt.ArrLen(kids); i < c; i++ {
				walk(rt.ArrGetRef(kids, i))
			}
		}
	}
	walk(f.Local(0))
	var sum uint64
	for i := 0; i < pc; i++ {
		sum = checksum(sum, rt.ArrGetData(code, i))
	}
	return sum
}

func (w *javac) Iterate(rt *core.Runtime, th *core.Thread) {
	var sum uint64
	for c := 0; c < javacClasses; c++ {
		f := th.PushFrame(1)
		ast := w.parse(rt, th, javacTreeDepth)
		f.SetLocal(0, ast)
		sum = checksum(sum, w.emit(rt, th, f.Local(0)))
		th.PopFrame()
	}
	_ = sum
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
