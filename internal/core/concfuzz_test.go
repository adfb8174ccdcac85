package core

import (
	"reflect"
	"testing"

	"repro/internal/vmheap"
)

// FuzzConcurrentPacer drives one byte-coded mutator script — randomized
// allocation bursts, wiring, range moves, explicit collections mid-flight,
// stats polls — against a stop-the-world runtime and a concurrent runtime
// whose pacer geometry (trigger fraction, assist slack, allocation-buffer
// size) is also drawn from the input, then requires identical observable
// state at the final quiescent point: the same live objects by script id and the
// same assertion verdicts, plus a clean heap and the growth-cap invariant.
// The corpus explores trigger/assist/retire interleavings — a burst landing
// mid-cycle, a buffer retired by an explicit GC between two assists — that
// the deterministic state-transition tests cannot reach.
func FuzzConcurrentPacer(f *testing.F) {
	// data[0..2] select trigger/slack/buffer; 2 bytes per op follow.
	f.Add([]byte{0, 0, 0, 0, 0, 4, 9, 1, 2, 5, 0})
	f.Add([]byte{1, 1, 1, 4, 15, 4, 15, 0, 1, 2, 3, 6, 0, 3, 1})
	f.Add([]byte{2, 2, 2, 0, 0, 1, 5, 2, 1, 4, 11, 5, 0, 4, 7, 0, 2})
	f.Add([]byte{3, 0, 2, 1, 3, 1, 5, 2, 4, 7, 0, 4, 12, 6, 0, 2, 2, 3, 0})
	f.Add([]byte{0, 2, 1, 4, 15, 4, 15, 4, 15, 5, 0, 4, 15, 4, 15, 7, 0, 0, 3})
	// An array (slot 0) survives a full collection; a node (slot 2) goes
	// into a newer array (slot 1), whose elements are then copied into the
	// older one; both newer slots are cleared and a collection runs. The
	// node's only reference is the copied one, so a copy that races an open
	// cycle must have scanned the older array's snapshot first (a node
	// freed here leaves a dangling element for VerifyHeap).
	f.Add([]byte{0, 0, 3, 1, 8, 5, 0, 1, 9, 0, 2, 2, 17, 8, 8, 3, 1, 3, 2, 6, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		triggers := []float64{0.3, 0.4, 0.5, 0.6}
		slacks := []float64{0.25, 0.5, 1.0}
		bufs := []int{0, 128, 256}
		trigger := triggers[int(data[0])%len(triggers)]
		slack := slacks[int(data[1])%len(slacks)]
		buf := bufs[int(data[2])%len(bufs)]
		script := data[3:]
		const maxOps = 250

		build := func(concurrent bool) *diffWorld {
			cfg := Config{HeapWords: 1 << 13, Mode: Infrastructure}
			if concurrent {
				cfg.ConcurrentGC = true
				cfg.gcTrigger = trigger
				cfg.assistSlack = slack
				cfg.AllocBuffers = buf
			}
			return newDiffWorldCfg(cfg)
		}
		apply := func(w *diffWorld, code, k byte) {
			slot := int(k) % diffSlots
			switch code % 9 {
			case 0: // alloc node into slot
				w.fr.SetLocal(slot, w.record(w.th.New(w.node)))
			case 1: // alloc ref array into slot
				w.fr.SetLocal(slot, w.record(w.th.NewRefArray(1+int(k)%6)))
			case 2: // wire slot -> slot
				src := w.fr.Local(slot)
				dst := w.fr.Local(int(k/8) % diffSlots)
				if src == Nil {
					return
				}
				switch {
				case w.rt.ClassOf(src) == w.node:
					off := w.aOff
					if k%2 == 1 {
						off = w.bOff
					}
					w.rt.SetRef(src, off, dst)
				case w.rt.KindOf(src) == int(vmheap.KindRefArray):
					if n := w.rt.ArrLen(src); n > 0 {
						w.rt.ArrSetRef(src, int(k)%n, dst)
					}
				}
			case 3: // clear slot
				w.fr.SetLocal(slot, Nil)
			case 4: // allocation burst, all garbage: the pacer's attack surface
				for j := 0; j < 1+int(k)%12; j++ {
					w.record(w.th.NewDataArray(8))
				}
			case 5, 6: // explicit full collection
				if err := w.rt.GC(); err != nil {
					t.Fatalf("GC: %v", err)
				}
			case 7: // stats/metrics poll (no heap effect; races the pacer)
				_ = w.rt.Stats()
				_ = w.rt.Metrics()
			case 8: // copy a range within or between ref arrays: slot k/8 -> slot k
				dst, src := w.fr.Local(slot), w.fr.Local(int(k/8)%diffSlots)
				if dst == Nil || src == Nil || w.rt.KindOf(dst) != int(vmheap.KindRefArray) ||
					w.rt.KindOf(src) != int(vmheap.KindRefArray) {
					return
				}
				// k's top two bits offset each side by 0 or 1 (arrays have
				// at least one element): a shift in either direction when
				// both slots name one array. The longest move that fits.
				di, si := int(k>>6)&1, int(k>>7)
				w.rt.ArrCopyRefs(dst, di, src, si, min(w.rt.ArrLen(dst)-di, w.rt.ArrLen(src)-si))
			}
		}

		stw, conc := build(false), build(true)
		ops := 0
		for n := 0; n+2 <= len(script) && ops < maxOps; n += 2 {
			apply(stw, script[n], script[n+1])
			apply(conc, script[n], script[n+1])
			ops++
		}

		limit := int64(len(script) % 3)
		for _, w := range []*diffWorld{stw, conc} {
			if err := w.rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
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
			if errs := w.rt.VerifyHeap(); len(errs) != 0 {
				t.Fatalf("heap corrupt: %v", errs[0])
			}
		}
		if a, b := drainSorted(stw), drainSorted(conc); !reflect.DeepEqual(a, b) {
			t.Fatalf("assertion verdicts differ:\nstw:  %v\nconc: %v", a, b)
		}
		if a, b := stw.liveIDs(t), conc.liveIDs(t); !reflect.DeepEqual(a, b) {
			t.Fatalf("live sets differ:\nstw:  %v\nconc: %v", a, b)
		}
		s := conc.rt.Stats().Pacer
		if s.MaxCycleGrowthWords > s.GrowthCapWords {
			t.Fatalf("cycle growth %d exceeded cap %d", s.MaxCycleGrowthWords, s.GrowthCapWords)
		}
	})
}
