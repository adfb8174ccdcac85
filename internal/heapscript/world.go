package heapscript

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/vmheap"
)

// World is one runtime driven by a script. Its slots are global roots
// followed by frame locals. An op allocates the object it keeps into a scratch
// local and moves it into its slot from there (fresh), so the world holds no
// fresh Ref in Go where another goroutine could collect. Every allocation gets
// the next script id, and every violation is captured at report time — while
// its object is still allocated, since an ownership pre-phase can report an
// object the same cycle sweeps — as a verdict naming objects by id and paths
// by class. The handler reads the ids map the mutator writes, so a runtime
// whose pacer goroutine collects must register nothing until it is closed.
type World struct {
	t               testing.TB
	RT              *core.Runtime
	Th              *core.Thread
	node, leaf, big *core.Class

	globals   []*core.Global
	fr        core.Frame
	slots     int
	scratch   int       // the local past the slots that allocations root into
	fields    [2]uint16 // Node's a and b, which Leaf inherits
	bigFields [4]uint16 // Big's r0..r3
	ids       map[core.Ref]int
	nalloc    int
	verdicts  []verdict
	rejects   []string
	regions   int
	ops       int
	model     *model // nil unless the world shadows itself
}

// verdict is one reported violation and its object's script id: -1 for
// none, -2 for an address no allocation of the script returned.
type verdict struct {
	report.Violation
	ID int
}

// newWorld builds a world on cfg with globals global and locals frame slots.
// Violations reach the world's handler and then the runtime's own recorder.
func newWorld(t testing.TB, cfg core.Config, globals, locals int) *World {
	w := &World{t: t, slots: globals + locals, ids: make(map[core.Ref]int)}
	cfg.Handler = report.HandlerFunc(func(v *report.Violation) report.Action {
		// Runs under the runtime lock: the ids map is read, never the runtime.
		id, ok := w.ids[v.Object]
		switch {
		case v.Object == core.Nil:
			id = -1
		case !ok:
			id = -2
		}
		w.verdicts = append(w.verdicts, verdict{*v, id})
		return report.Continue
	})
	rt := core.New(cfg)
	w.RT, w.Th = rt, rt.MainThread()
	w.node = rt.DefineClass("Node", core.RefField("a"), core.RefField("b"))
	w.leaf = rt.DefineSubclass("Leaf", w.node)
	w.big = rt.DefineClass("Big", core.RefField("r0"), core.RefField("r1"), core.RefField("r2"), core.RefField("r3"))
	w.fields = [2]uint16{w.node.MustFieldIndex("a"), w.node.MustFieldIndex("b")}
	for n := range w.bigFields {
		w.bigFields[n] = w.big.MustFieldIndex(fmt.Sprintf("r%d", n))
	}
	for n := range globals {
		w.globals = append(w.globals, rt.AddGlobal(fmt.Sprintf("g%d", n)))
	}
	w.scratch = locals
	w.fr = w.Th.PushFrame(locals + 1)
	return w
}

// Get returns slot i's reference.
func (w *World) get(i int) core.Ref {
	if i < len(w.globals) {
		return w.globals[i].Get()
	}
	return w.fr.Local(i - len(w.globals))
}

func (w *World) set(i int, r core.Ref) {
	if i < len(w.globals) {
		w.globals[i].Set(r)
	} else {
		w.fr.SetLocal(i-len(w.globals), r)
	}
	w.model.root(i, w.id(r))
}

// fresh moves the object an allocation just rooted in the scratch local
// into slot i, naming it as alloc does.
func (w *World) fresh(i int, r core.Ref, class string, refs, words int) {
	w.set(i, w.alloc(r, class, refs, words))
	w.fr.SetLocal(w.scratch, core.Nil)
}

func (w *World) id(r core.Ref) int {
	if r == core.Nil {
		return -1
	}
	return w.ids[r]
}

// alloc names r by the next script id; class, refs and words are what the
// model expects of it (words include the header and the two-word alignment).
func (w *World) alloc(r core.Ref, class string, refs, words int) core.Ref {
	w.ids[r] = w.nalloc
	w.model.alloc(w.nalloc, class, refs, words+words%2)
	w.nalloc++
	return r
}

// check keeps an ownership rejection as an outcome to compare and fails on
// any other error.
func (w *World) check(op Op, err error) {
	switch {
	case err == nil:
	case op.Code == AssertOwnedBy:
		w.rejects = append(w.rejects, fmt.Sprintf("op %d: %v", w.ops, err))
	default:
		w.t.Fatalf("op %d %+v: %v", w.ops, op, err)
	}
}

// apply runs one op. Ops that name a nil slot, or an object of the wrong
// kind, do nothing.
func (w *World) apply(op Op) {
	w.ops++
	rt, th, k := w.RT, w.Th, int(op.K)
	i, j := int(op.I)%w.slots, int(op.J)%w.slots
	switch op.Code {
	case AllocNode:
		w.fresh(i, w.fr.New(w.scratch, w.node), "Node", 2, 3)
	case AllocLeaf:
		w.fresh(i, w.fr.New(w.scratch, w.leaf), "Leaf", 2, 3)
	case AllocBig:
		w.fresh(i, w.fr.New(w.scratch, w.big), "Big", 4, 5)
	case AllocRefs:
		w.fresh(i, w.fr.NewRefArray(w.scratch, 1+k%6), "Object[]", 1+k%6, 3+k%6)
	case AllocData:
		w.fresh(i, w.fr.NewDataArray(w.scratch, 1+k%16), "data[]", 0, 3+k%16)
		rt.ArrSetData(w.get(i), 0, uint64(k))
		if got := rt.ArrGetData(w.get(i), 0); got != uint64(k) {
			w.t.Fatalf("op %d: data word reads %d, want %d", w.ops, got, k)
		}
	case AllocString:
		f := th.PushFrame(1)
		w.alloc(f.NewString(0, strings.Repeat("x", k%20)), "data[]", 0, 3+(k%20+7)/8)
		if got := rt.StringLen(f.Local(0)); got != k%20 {
			w.t.Fatalf("op %d: string length %d, want %d", w.ops, got, k%20)
		}
		w.set(i, f.Local(0))
		th.PopFrame()
	case Burst:
		for range 1 + k%12 {
			w.alloc(th.NewDataArray(8), "data[]", 0, 10)
		}
	case Store:
		src, dst := w.get(i), w.get(j)
		if src == core.Nil {
			return
		}
		switch {
		case rt.KindOf(src) == int(vmheap.KindRefArray):
			n := k % rt.ArrLen(src)
			rt.ArrSetRef(src, n, dst)
			w.model.store(w.id(src), n, w.id(dst))
		case rt.KindOf(src) == int(vmheap.KindDataArray):
		case rt.ClassOf(src) == w.big:
			rt.SetRef(src, w.bigFields[k%4], dst)
			w.model.store(w.id(src), k%4, w.id(dst))
		default:
			rt.SetRef(src, w.fields[k%2], dst)
			w.model.store(w.id(src), k%2, w.id(dst))
		}
	case Copy:
		src, dst := w.get(i), w.get(j)
		if src == core.Nil || dst == core.Nil || rt.KindOf(src) != int(vmheap.KindRefArray) ||
			rt.KindOf(dst) != int(vmheap.KindRefArray) {
			return
		}
		sn, dn := rt.ArrLen(src), rt.ArrLen(dst)
		si, di := k&7%sn, k>>3&7%dn
		n := min(sn-si, dn-di)
		n -= k >> 6 % n
		rt.ArrCopyRefs(dst, di, src, si, n)
		w.model.copy(w.id(dst), di, w.id(src), si, n)
	case Clear:
		w.set(i, core.Nil)
	case AssertDead, AssertUnshared:
		if r := w.get(i); r != core.Nil {
			if op.Code == AssertDead {
				w.check(op, rt.AssertDead(r))
			} else {
				w.check(op, rt.AssertUnshared(r))
			}
			w.model.assert(op.Code, w.id(r))
		}
	case AssertInstances:
		c, limit := w.node, int64(k>>2)
		if k&1 == 1 {
			c = w.leaf
		}
		if k&2 == 0 {
			w.check(op, rt.AssertInstances(c, limit))
		} else {
			w.check(op, rt.AssertInstancesIncludingSubclasses(c, limit))
		}
		w.model.instances(c.Name, k&2 != 0, limit)
	case AssertOwnedBy:
		if owner, ownee := w.get(i), w.get(j); owner != core.Nil && ownee != core.Nil && owner != ownee {
			w.check(op, rt.AssertOwnedBy(owner, ownee))
			w.model.unsupported("assert-ownedby")
		}
	case StartRegion:
		if w.regions < 2 {
			w.regions++
			w.check(op, th.StartRegion())
			w.model.startRegion()
		}
	case AssertAllDead:
		if w.regions > 0 {
			w.regions--
			w.check(op, th.AssertAllDead())
			w.model.allDead()
		}
	case GC:
		w.check(op, rt.GC())
		w.model.collect()
	case StartGC:
		w.check(op, rt.StartGC())
		w.model.collect()
	case GCStep:
		_, err := rt.GCStep()
		w.check(op, err)
	case FinishGC:
		w.check(op, rt.FinishGC())
	case Cycle:
		w.check(op, rt.StartGC())
		for done := false; !done; {
			var err error
			done, err = rt.GCStep()
			w.check(op, err)
		}
		w.check(op, rt.FinishGC())
		w.model.collect()
	case Poll:
		rt.Stats()
		rt.Metrics()
	case Close:
		w.check(op, rt.Close())
	}
}
