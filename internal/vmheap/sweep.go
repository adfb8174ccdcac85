package vmheap

import (
	"fmt"

	"repro/internal/telemetry"
)

// SweepStats summarizes one sweep pass.
type SweepStats struct {
	LiveObjects  uint64 // objects that survived (were marked)
	LiveWords    uint64
	FreedObjects uint64 // unmarked objects reclaimed this sweep
	FreedWords   uint64
	FreeChunks   uint64 // free-list chunks after coalescing
}

// SweepOptions controls a sweep pass.
type SweepOptions struct {
	// OnFree, if non-nil, is called for every object reclaimed by the
	// sweep, with its Ref and header as they were before reclamation.
	// The assertion engine uses this to purge owner/ownee tables and
	// region queues that refer to reclaimed objects. OnFree must not
	// allocate from this heap.
	OnFree func(r Ref, header uint64)
	// OnLive, if non-nil, is called for every surviving object. It must
	// not allocate from this heap.
	OnLive func(r Ref, header uint64)
	// ClearFlags is a mask of flag bits to clear on surviving objects in
	// addition to the mark bit (for example FlagOwned between cycles).
	ClearFlags uint64
}

// Sweep performs the sweep phase of a mark-sweep collection: it walks the
// heap linearly, reclaims every unmarked object, coalesces adjacent free
// chunks, rebuilds the free lists from scratch, and clears the mark bit on
// survivors.
//
// Sweep assumes a trace has just run: surviving objects have FlagMark set.
func (h *Heap) Sweep(opts SweepOptions) SweepStats {
	h.AssertNoBuffers("Sweep")
	start := h.tele.Begin(telemetry.PhaseSweep)
	h.resetFreeLists()
	st := h.reclaim(opts)
	h.debugCheck()
	h.liveObjs = st.LiveObjects
	h.liveWords = st.LiveWords
	h.freeWords = h.CapacityWords() - st.LiveWords
	h.tele.End(telemetry.PhaseSweep, start)
	return st
}

// reclaim is the sweep: the one walk that rewrites headers. Over the whole
// arena it absorbs existing free chunks into the open run, keeps survivors
// (OnLive, mark and ClearFlags cleared), reclaims garbage
// (OnFree) into the open run, and installs each run a survivor or the arena
// end closes.
func (h *Heap) reclaim(opts SweepOptions) SweepStats {
	unmark := FlagMark | opts.ClearFlags
	// runStart/runLen are the open run of free words (runLen 0 = none).
	var runStart, runLen uint32
	var st SweepStats
	end := h.end()
	for addr := uint32(heapBase); addr < end; {
		hd := h.words[addr]
		size := headerSize(hd)
		if size == 0 || addr+size > end {
			panic(fmt.Sprintf("vmheap: corrupt header at %d during sweep: %#x", addr, hd))
		}
		switch {
		case hd&FlagFree != 0:
			if runLen == 0 {
				runStart = addr
			}
			runLen += size

		case hd&FlagMark != 0:
			if opts.OnLive != nil {
				opts.OnLive(Ref(addr), hd)
			}
			h.words[addr] = hd &^ unmark
			st.LiveObjects++
			st.LiveWords += uint64(size)
			if runLen != 0 {
				h.installChunk(Ref(runStart), runLen)
				st.FreeChunks++
				runLen = 0
			}

		default:
			if opts.OnFree != nil {
				opts.OnFree(Ref(addr), hd)
			}
			if runLen == 0 {
				runStart = addr
			}
			runLen += size
			st.FreedObjects++
			st.FreedWords += uint64(size)
		}
		addr += size
	}
	if runLen != 0 {
		h.installChunk(Ref(runStart), runLen)
		st.FreeChunks++
	}
	return st
}

// ClearMarks clears the mark bit (and any extra bits in mask) on every
// object without sweeping. Used by tools and tests that trace the heap
// outside a collection.
func (h *Heap) ClearMarks(mask uint64) {
	h.Iterate(func(r Ref, _ uint64) {
		h.ClearFlags(r, FlagMark|mask)
	})
}
