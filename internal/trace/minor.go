package trace

import (
	"repro/internal/roots"
	"repro/internal/telemetry"
	"repro/internal/vmheap"
)

// TraceMinor marks the immature objects reachable from the roots and from
// the remembered set, for a generational minor collection. Mature objects
// act as boundaries: they are never marked or traced (their only pointers
// into the nursery are covered by the remembered set, maintained by the
// runtime's write barrier).
//
// Minor collections run the plain Base-style loop with no assertion
// checks: as the paper notes, under a generational collector assertions
// are only checked at full-heap collections, "allowing some assertions to
// go unchecked for long periods of time".
func (t *Tracer) TraceMinor(src roots.Source, remembered []vmheap.Ref) {
	teleStart := t.tele.Begin(telemetry.PhaseMinorMark)
	defer t.tele.End(telemetry.PhaseMinorMark, teleStart)
	h := t.heap
	stack := t.stack[:0]

	push := func(c vmheap.Ref) {
		t.stats.RefsScanned++
		if c == vmheap.Nil {
			return
		}
		hd := h.Header(c)
		if hd&(vmheap.FlagMark|vmheap.FlagMature) != 0 {
			return
		}
		h.SetFlags(c, vmheap.FlagMark)
		t.countVisit(hd)
		stack = append(stack, uint32(c))
	}

	src.EachRoot(func(slot *vmheap.Ref) { push(*slot) })

	// Scan the fields of each remembered mature object without marking
	// the object itself.
	scan := func(r vmheap.Ref) {
		switch h.KindOf(r) {
		case vmheap.KindScalar:
			for _, off := range t.reg.RefOffsets(h.ClassID(r)) {
				push(h.RefAt(r, uint32(off)))
			}
		case vmheap.KindRefArray:
			n := h.ArrayLen(r)
			for i := uint32(0); i < n; i++ {
				push(vmheap.Ref(h.ArrayWord(r, i)))
			}
		case vmheap.KindDataArray:
		}
	}
	for _, r := range remembered {
		scan(r)
	}

	for len(stack) > 0 {
		r := vmheap.Ref(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		scan(r)
	}
	t.stack = stack[:0]
}
