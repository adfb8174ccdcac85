package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/report"
	"repro/internal/vmheap"
)

// TestConcurrentDifferential drives one deterministic mutator script
// against a stop-the-world runtime and a concurrent (background pacer)
// runtime and requires identical observable behavior at the final
// quiescent point: the same live objects, by script-assigned id, and the
// same assertion verdicts.
//
// The concurrent world's cycles land at nondeterministic script points, so
// the comparison is shaped around that: no assertion is registered during
// the mutation phase (a cycle with nothing registered reports nothing, so
// extra cycles are invisible), hidden-register flotsam is dropped by Close
// and reclaimed by the first post-Close collection, and verdict strings
// omit the cycle number. Everything that remains — reachability verdicts,
// sharing verdicts, instance counts, the live set — must match exactly.
//
// The leafy arm is the ownership + leaf-heavy variant: most allocations are
// data arrays — which the pacer's cycles push and pop like any object and
// the stop-the-world twin's collections keep off the worklist — and the
// quiescent point also registers ownership pairs, so the final collections
// run the owner scan over that heap in both worlds.
//
// The generational arm runs the same collector on a script reshaped by the
// weak generational hypothesis (oldGenScript): two slots hold an old
// generation that lives the whole script while the rest churn, so most
// objects die young and the old ones keep taking stores of young references.
// That script has no explicit collections, so the concurrent world's pacer
// must run cycles of its own, and the arm fails if it runs none.
func TestConcurrentDifferential(t *testing.T) {
	for _, shape := range []string{"marksweep", "generational"} {
		for _, leafy := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s_leafy%v_seed%d", shape, leafy, seed), func(t *testing.T) {
					runConcurrentDifferential(t, seed, leafy, shape == "generational")
				})
			}
		}
	}
}

// oldGenSlots is how many low-numbered slots oldGenScript reserves for the
// old generation.
const oldGenSlots = 2

// oldGenSlot returns the slot selector a redirected into the young slots
// when it names an old-generation slot; slots counts the world's slots.
func oldGenSlot(a byte, slots int) byte {
	if int(a)%slots < oldGenSlots {
		return a + oldGenSlots
	}
	return a
}

const diffSlots = 8

type diffWorld struct {
	rt         *Runtime
	th         *Thread
	fr         *Frame
	node       *Class
	aOff, bOff uint16
	ids        map[Ref]int
	nalloc     int
	vlog       []string
}

// newDiffWorldCfg builds one runtime from cfg (the handler is installed
// here). Violations are rendered at report time (under the runtime lock,
// while the object is still allocated) into strings without cycle numbers —
// the two worlds run different numbers of cycles by design.
func newDiffWorldCfg(cfg Config) *diffWorld {
	w := &diffWorld{ids: make(map[Ref]int)}
	cfg.Handler = report.HandlerFunc(func(v *report.Violation) report.Action {
		objID := -1
		if v.Object != Nil {
			id, ok := w.ids[v.Object]
			if !ok {
				id = -2 // would indicate a recycled-address bug
			}
			objID = id
		}
		w.vlog = append(w.vlog, fmt.Sprintf("%v|%s#%d|%d/%d",
			v.Kind, v.Class, objID, v.Count, v.Limit))
		return report.Continue
	})
	w.rt = New(cfg)
	w.th = w.rt.MainThread()
	w.node = w.rt.DefineClass("DNode", RefField("a"), RefField("b"))
	w.aOff = w.node.MustFieldIndex("a")
	w.bOff = w.node.MustFieldIndex("b")
	w.fr = w.th.PushFrame(diffSlots)
	return w
}

func newDiffWorld(concurrent bool) *diffWorld {
	cfg := Config{HeapWords: 1 << 13, Mode: Infrastructure}
	if concurrent {
		cfg.ConcurrentGC = true
		cfg.gcTrigger = 0.4
		cfg.assistSlack = 0.5
		cfg.AllocBuffers = 128
	}
	return newDiffWorldCfg(cfg)
}

// drainSorted takes and sorts the world's rendered violations.
func drainSorted(w *diffWorld) []string {
	out := w.vlog
	w.vlog = nil
	sort.Strings(out)
	return out
}

func (w *diffWorld) record(r Ref) Ref {
	w.ids[r] = w.nalloc
	w.nalloc++
	return r
}

func (w *diffWorld) liveIDs(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, o := range w.rt.LiveSet() {
		id, ok := w.ids[o.Ref]
		if !ok {
			t.Fatalf("live object %d has no script id", o.Ref)
		}
		out = append(out, fmt.Sprintf("%d:%s:%d", id, o.Class, o.Words))
	}
	sort.Strings(out)
	return out
}

type diffOp struct{ code, a, b byte }

// oldGenScript reshapes script so that its first ops allocate a node into
// each old-generation slot and no later allocation or clear targets those
// slots; wires still reach them in both directions. Its explicit collections
// become young node allocations, so only allocation starts a collection —
// cycles of the concurrent world's pacer and the twin's exhaustion ladder.
func oldGenScript(script []diffOp) {
	for i := range script {
		op := &script[i]
		switch {
		case i < oldGenSlots:
			*op = diffOp{code: 0, a: byte(i), b: op.b}
		case op.code >= 96:
			op.code = 0
			fallthrough
		case op.code < 60 || op.code >= 84: // allocation or clear
			op.a = oldGenSlot(op.a, diffSlots)
		}
	}
}

func (w *diffWorld) apply(t *testing.T, op diffOp) {
	t.Helper()
	slot := int(op.a) % diffSlots
	switch {
	case op.code < 30: // alloc node into slot
		w.fr.SetLocal(slot, w.record(w.th.New(w.node)))
	case op.code < 50: // alloc ref array into slot
		w.fr.SetLocal(slot, w.record(w.th.NewRefArray(1+int(op.b)%8)))
	case op.code < 60: // alloc data array into slot
		w.fr.SetLocal(slot, w.record(w.th.NewDataArray(1+int(op.b)%16)))
	case op.code < 84: // wire slot -> slot
		src := w.fr.Local(slot)
		dst := w.fr.Local(int(op.b) % diffSlots)
		if src == Nil {
			return
		}
		switch {
		case w.rt.ClassOf(src) == w.node:
			off := w.aOff
			if op.b%2 == 1 {
				off = w.bOff
			}
			w.rt.SetRef(src, off, dst)
		case w.rt.KindOf(src) == int(vmheap.KindRefArray):
			if n := w.rt.ArrLen(src); n > 0 {
				w.rt.ArrSetRef(src, int(op.b)%n, dst)
			}
		}
	case op.code < 96: // clear slot
		w.fr.SetLocal(slot, Nil)
	default: // explicit full collection (both worlds run it)
		if err := w.rt.GC(); err != nil {
			t.Fatalf("GC: %v", err)
		}
	}
}

func runConcurrentDifferential(t *testing.T, seed int64, leafy, generational bool) {
	rng := rand.New(rand.NewSource(seed))
	script := make([]diffOp, 2000)
	for i := range script {
		script[i] = diffOp{byte(rng.Intn(100)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		if op := &script[i]; leafy && op.code >= 15 && op.code < 50 {
			op.code = 50 // a data array where the plain script allocates a node or ref array
		}
	}
	if generational {
		oldGenScript(script)
	}
	regChoice := make([]int, diffSlots)
	for s := range regChoice {
		regChoice[s] = rng.Intn(3)
	}
	limit := int64(rng.Intn(4))

	stw := newDiffWorld(false)
	conc := newDiffWorld(true)
	for _, op := range script {
		stw.apply(t, op)
		conc.apply(t, op)
	}

	for _, w := range []*diffWorld{stw, conc} {
		// Quiesce: stops the concurrent world's pacer (a no-op for the
		// stop-the-world twin), after which both worlds run the same
		// synchronous registration-and-check sequence.
		if err := w.rt.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for s, c := range regChoice {
			r := w.fr.Local(s)
			if r == Nil {
				continue
			}
			switch c {
			case 0:
				// Usually dies with the root dropped; stays reachable — and
				// violates — when the script wired it somewhere else.
				if err := w.rt.AssertDead(r); err != nil {
					t.Fatalf("AssertDead: %v", err)
				}
				w.fr.SetLocal(s, Nil)
			case 1:
				if err := w.rt.AssertUnshared(r); err != nil {
					t.Fatalf("AssertUnshared: %v", err)
				}
			case 2:
				// Owned by the previous slot's object, whatever the script
				// left there; a rejected pairing is an outcome to compare.
				if owner := w.fr.Local((s + diffSlots - 1) % diffSlots); leafy && owner != Nil && owner != r {
					if err := w.rt.AssertOwnedBy(owner, r); err != nil {
						w.vlog = append(w.vlog, err.Error())
					}
				}
			}
		}
		if err := w.rt.AssertInstances(w.node, limit); err != nil {
			t.Fatalf("AssertInstances: %v", err)
		}
		if err := w.rt.GC(); err != nil {
			t.Fatalf("final GC: %v", err)
		}
		if err := w.rt.GC(); err != nil {
			t.Fatalf("second final GC: %v", err)
		}
	}

	if a, b := drainSorted(stw), drainSorted(conc); !reflect.DeepEqual(a, b) {
		t.Fatalf("assertion verdicts differ:\nstw:  %v\nconc: %v", a, b)
	}
	if a, b := stw.liveIDs(t), conc.liveIDs(t); !reflect.DeepEqual(a, b) {
		t.Fatalf("live sets differ:\nstw:  %v\nconc: %v", a, b)
	}
	for _, w := range []*diffWorld{stw, conc} {
		if errs := w.rt.VerifyHeap(); len(errs) != 0 {
			t.Fatalf("heap corrupt: %v", errs[0])
		}
	}
	s := conc.rt.Stats().Pacer
	if generational && s.Cycles == 0 {
		t.Fatal("vacuous: the concurrent world ran no pacer cycle")
	}
	if s.MaxCycleGrowthWords > s.GrowthCapWords {
		t.Fatalf("cycle growth %d exceeded cap %d", s.MaxCycleGrowthWords, s.GrowthCapWords)
	}
}
