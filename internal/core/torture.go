//go:build gctorture

package core

import (
	"fmt"

	"repro/internal/vmheap"
)

// The GC-torture build (make torture; DESIGN.md §11) checks that no Ref is
// held only in Go across a point where a collection could free its object. A
// torture point is a side trace from the roots that changes no verdict,
// counter or stat; every object it does not reach is poisoned until it is
// allocated afresh. An accessor whose operand is poisoned panics, and so does
// a later trace that reaches one. The points: the entry of every allocation
// and, on a shared runtime, the return of every accessor, frame, global,
// string and allocation call. Here the shared regime is not manyMutators, so
// all of those take rt.mu through lockMu, whose unlock runs the point.
const torture = true

const sharedRegime = manyMutators + 1

// tortureState is a runtime's poison bookkeeping, indexed by Ref/2. An object
// is poisoned when the last point neither reached it nor preceded its birth.
type tortureState struct {
	epoch      uint32   // points run so far
	seen, born []uint32 // the last point that reached the object; its birth epoch
	stack      []Ref
}

// unlocker returns lockMu's unlock: a point on a shared runtime, then the
// unlock, deferred so a torture panic cannot leave rt.mu held.
func (rt *Runtime) unlocker() func() {
	return func() {
		defer rt.mu.Unlock()
		if rt.mutators.Load() == sharedRegime {
			rt.torturePoint()
		}
	}
}

// torturePointUnlocked is the point at the entry of every allocation (so the
// tables exist before its publish stamps the object, tortureBorn) and at the
// return of a shared one from the bump path.
func (rt *Runtime) torturePointUnlocked() {
	if rt.mutators.Load() == sharedRegime {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	}
	rt.torturePoint()
}

func (rt *Runtime) tortureBorn(r Ref) { rt.torture.born[r/2] = rt.torture.epoch }

func (rt *Runtime) checkPoison(r Ref) {
	if ts := &rt.torture; r != Nil && ts.seen[r/2] != ts.epoch && ts.born[r/2] != ts.epoch {
		panic(fmt.Sprintf("core: gctorture: access to object %d, which no root reached at the last torture point", r))
	}
}

// torturePoint runs one side trace. Caller holds rt.mu or is solo; the buffer
// spinlocks are taken too, so no bump allocation writes a header or a frame
// slot under the trace.
func (rt *Runtime) torturePoint() {
	ts, h := &rt.torture, rt.heap
	if ts.seen == nil {
		n := (h.CapacityWords()+2)/2 + 1
		ts.seen, ts.born = make([]uint32, n), make([]uint32, n)
	}
	for _, t := range rt.allThreads {
		t.lockBuf()
		defer t.unlockBuf()
	}
	ts.epoch++
	rt.rootSrc.EachRoot(func(slot *Ref) { ts.reach(h, *slot) })
	for len(ts.stack) > 0 {
		r := ts.stack[len(ts.stack)-1]
		ts.stack = ts.stack[:len(ts.stack)-1]
		switch h.KindOf(r) {
		case vmheap.KindScalar:
			for _, off := range rt.reg.RefOffsets(h.ClassID(r)) {
				ts.reach(h, h.RefAt(r, uint32(off)))
			}
		case vmheap.KindRefArray:
			for i, n := uint32(0), h.ArrayLen(r); i < n; i++ {
				ts.reach(h, Ref(h.ArrayWord(r, i)))
			}
		}
	}
}

// reach marks r and queues it, panicking if it is poisoned or freed.
func (ts *tortureState) reach(h *vmheap.Heap, r Ref) {
	if r == Nil || ts.seen[r/2] == ts.epoch {
		return
	}
	if last := ts.epoch - 1; h.Flags(r, vmheap.FlagFree) != 0 || ts.seen[r/2] != last && ts.born[r/2] != last {
		panic(fmt.Sprintf("core: gctorture: object %d is reachable, but was unreachable at the last torture point or is freed", r))
	}
	ts.seen[r/2] = ts.epoch
	ts.stack = append(ts.stack, r)
}
