package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/report"
)

// FuzzIncrementalBarrier drives one byte-coded mutator script against a
// stop-the-world runtime and an incremental runtime (budget also drawn from
// the input) and requires identical observable behavior at every quiescent
// point. It is the fuzzer-shaped twin of the trace package's incremental
// differential: the corpus explores cycle/mutation interleavings — writes
// racing mark slices, assertions registered mid-cycle (forcing completion),
// regions opened and closed across slice boundaries — that the seeded
// random scripts may never hit.
//
// Unlike FuzzParallelTrace, raw LiveSet/FreeChunks comparison is unsound
// here: the two worlds sweep at different script points, so their free
// lists and recycled addresses legitimately diverge. Objects are therefore
// tracked by script-assigned allocation ids, and violations are rendered at
// report time — while the violating object is still allocated — because the
// ownership pre-phase can report objects the very same cycle sweeps.
func FuzzIncrementalBarrier(f *testing.F) {
	// data[0] selects the incremental budget; 3 bytes per op follow.
	f.Add([]byte{0, 0, 0, 0, 8, 0, 0, 2, 0, 1, 10, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 4, 0, 0, 8, 0, 0, 2, 0, 1, 10, 0, 0})
	f.Add([]byte{2, 6, 0, 0, 0, 0, 0, 7, 0, 0, 8, 0, 0, 9, 0, 0, 10, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 11, 0, 1, 8, 0, 0, 3, 1, 0, 10, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 5, 0, 0, 2, 0, 0, 8, 0, 0, 12, 0, 0, 10, 0, 0})
	// A range move inside an open cycle: a 3-element array (slot 0) whose
	// element 0 is a node (slot 1) asserted dead and held nowhere else; the
	// cycle opens, elements 1..2 are shifted over element 0 before any slice
	// has reached the array, and the cycle completes. The stop-the-world
	// twin collected at the open and reported the node; the snapshot barrier
	// on the move must make the incremental cycle report and keep it too.
	f.Add([]byte{0, 1, 0, 2, 0, 1, 0, 2, 0, 9, 4, 1, 0, 3, 1, 0, 8, 0, 0, 13, 8, 0, 10, 0, 0})
	// The same between two arrays: an empty one (slot 2) copied over it,
	// after the cycle's first one-object slice.
	f.Add([]byte{0, 1, 0, 2, 1, 2, 2, 0, 1, 0, 2, 0, 9, 4, 1, 0, 3, 1, 0, 8, 0, 0, 9, 0, 0, 13, 2, 0, 10, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		const (
			slots  = 8
			maxOps = 300
			numOps = 14 // the op alphabet below
		)
		budget := 1 + int(data[0])%4
		script := data[1:]

		type world struct {
			rt          *Runtime
			th          *Thread
			fr          *Frame
			node        *Class
			aOff, bOff  uint16
			ids         map[Ref]int
			nalloc      int
			vlog        []string
			regionDepth int
		}
		// The heap is sized far above the script's total allocation volume
		// (300 ops x at most 8 words) so low-space triggering and exhaustion
		// collections never fire: cycles start only at the script's explicit
		// GC ops, keeping the two worlds' collection counts aligned.
		build := func(budget int) *world {
			w := &world{ids: make(map[Ref]int)}
			rt := New(Config{
				HeapWords:         1 << 14,
				Mode:              Infrastructure,
				IncrementalBudget: budget,
				// Render at report time: the handler runs during collection
				// (under the runtime lock — no rt calls here), while
				// v.Object is still allocated and its id lookup is sound.
				Handler: report.HandlerFunc(func(v *report.Violation) report.Action {
					objID := -1
					if v.Object != Nil {
						id, ok := w.ids[v.Object]
						if !ok {
							id = -2 // would indicate a recycled-address bug
						}
						objID = id
					}
					w.vlog = append(w.vlog, fmt.Sprintf("%v|c%d|%s#%d|%d/%d|%s",
						v.Kind, v.Cycle, v.Class, objID, v.Count, v.Limit, v.Owner))
					return report.Continue
				}),
			})
			w.rt = rt
			w.th = rt.MainThread()
			w.node = rt.DefineClass("Node", RefField("a"), RefField("b"))
			w.aOff = w.node.MustFieldIndex("a")
			w.bOff = w.node.MustFieldIndex("b")
			w.fr = w.th.PushFrame(slots)
			return w
		}
		record := func(w *world, r Ref) Ref {
			w.ids[r] = w.nalloc
			w.nalloc++
			return r
		}
		apply := func(w *world, code, i, k byte) {
			slot := int(i) % slots
			switch code % numOps {
			case 0: // alloc node into slot
				w.fr.SetLocal(slot, record(w, w.th.New(w.node)))
			case 1: // alloc ref array into slot
				w.fr.SetLocal(slot, record(w, w.th.NewRefArray(1+int(k)%6)))
			case 2: // wire slot -> slot (the write barrier's attack surface)
				src := w.fr.Local(slot)
				dst := w.fr.Local(int(k) % slots)
				if src == Nil {
					return
				}
				if w.rt.ClassOf(src) == w.node {
					off := w.aOff
					if k%2 == 1 {
						off = w.bOff
					}
					w.rt.SetRef(src, off, dst)
				} else if n := w.rt.ArrLen(src); n > 0 {
					w.rt.ArrSetRef(src, int(k)%n, dst)
				}
			case 3: // clear slot
				w.fr.SetLocal(slot, Nil)
			case 4: // assert-dead (registration: forces any active cycle)
				if r := w.fr.Local(slot); r != Nil {
					_ = w.rt.AssertDead(r)
				}
			case 5: // assert-unshared
				if r := w.fr.Local(slot); r != Nil {
					_ = w.rt.AssertUnshared(r)
				}
			case 6: // start-region
				if w.regionDepth < 2 {
					if w.th.StartRegion() == nil {
						w.regionDepth++
					}
				}
			case 7: // assert-alldead
				if w.regionDepth > 0 {
					if err := w.th.AssertAllDead(); err != nil {
						t.Fatalf("AssertAllDead: %v", err)
					}
					w.regionDepth--
				}
			case 8: // start a collection cycle (script guarantees no nesting)
				if err := w.rt.StartGC(); err != nil {
					t.Fatalf("StartGC: %v", err)
				}
			case 9: // one mark slice (no-op when no cycle is active)
				if _, err := w.rt.GCStep(); err != nil {
					t.Fatalf("GCStep: %v", err)
				}
			case 10: // complete the cycle
				if err := w.rt.FinishGC(); err != nil {
					t.Fatalf("FinishGC: %v", err)
				}
			case 11: // assert-ownedby
				owner, ownee := w.fr.Local(slot), w.fr.Local(int(k)%slots)
				if owner != Nil && ownee != Nil && owner != ownee {
					_ = w.rt.AssertOwnedBy(owner, ownee)
				}
			case 12: // assert-instances on Node
				_ = w.rt.AssertInstances(w.node, int64(k%6))
			case 13: // copy a range within or between ref arrays: slot i -> slot k
				src, dst := w.fr.Local(slot), w.fr.Local(int(k)%slots)
				if src == Nil || dst == Nil || w.rt.ClassOf(src) == w.node || w.rt.ClassOf(dst) == w.node {
					return
				}
				// Offsets from the bits the slot choice leaves; the longest
				// move that fits, shortened by i's top two bits.
				si, di := int(i>>3)%w.rt.ArrLen(src), int(k>>3)%w.rt.ArrLen(dst)
				n := min(w.rt.ArrLen(src)-si, w.rt.ArrLen(dst)-di)
				w.rt.ArrCopyRefs(dst, di, src, si, n-int(i>>6)%n)
			}
		}
		drain := func(w *world) []string {
			out := w.vlog
			w.vlog = nil
			sort.Strings(out)
			return out
		}
		liveIDs := func(w *world) []string {
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
		compare := func(at int, stw, inc *world) {
			if stw.rt.GCActive() || inc.rt.GCActive() {
				t.Fatalf("op %d: cycle active at quiescent point", at)
			}
			if a, b := drain(stw), drain(inc); !reflect.DeepEqual(a, b) {
				t.Fatalf("op %d: violations differ:\nstw: %v\ninc: %v", at, a, b)
			}
			if a, b := liveIDs(stw), liveIDs(inc); !reflect.DeepEqual(a, b) {
				t.Fatalf("op %d: live sets differ:\nstw: %v\ninc: %v", at, a, b)
			}
		}

		stw, inc := build(0), build(budget)
		// Script-level block tracking keeps StartGC/FinishGC properly
		// paired, so both worlds complete the same number of cycles at
		// every comparison point.
		inBlock := false
		ops := 0
		for n := 0; n+3 <= len(script) && ops < maxOps; n += 3 {
			code, i, k := script[n], script[n+1], script[n+2]
			switch {
			case code%numOps == 8 && inBlock:
				code = 9
			case code%numOps == 10 && !inBlock:
				code = 9
			case code%numOps == 8:
				inBlock = true
			case code%numOps == 10:
				inBlock = false
			}
			apply(stw, code, i, k)
			apply(inc, code, i, k)
			ops++
			if code%numOps == 10 {
				compare(ops, stw, inc)
			}
		}
		for _, w := range []*world{stw, inc} {
			if err := w.rt.FinishGC(); err != nil {
				t.Fatalf("final FinishGC: %v", err)
			}
			if err := w.rt.GC(); err != nil {
				t.Fatalf("final GC: %v", err)
			}
		}
		compare(ops, stw, inc)
		a, b := stw.rt.Stats().GC, inc.rt.Stats().GC
		if a.Trace != b.Trace {
			t.Fatalf("trace stats differ:\nstw: %+v\ninc: %+v", a.Trace, b.Trace)
		}
		if a.Collections != b.Collections || a.MarkedObjects != b.MarkedObjects ||
			a.FreedObjects != b.FreedObjects || a.FreedWords != b.FreedWords {
			t.Fatalf("collection totals differ:\nstw: %+v\ninc: %+v", a, b)
		}
		for _, w := range []*world{stw, inc} {
			if errs := w.rt.VerifyHeap(); len(errs) != 0 {
				t.Fatalf("heap corrupt: %v", errs[0])
			}
		}
	})
}
