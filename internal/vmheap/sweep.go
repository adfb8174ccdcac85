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
	// SetFlags is a mask of flag bits to set on surviving objects (the
	// generational collector promotes survivors with FlagMature).
	SetFlags uint64
	// Immature restricts the sweep to objects without FlagMature: mature
	// objects are treated as live regardless of their mark bit. Used by
	// the generational collector's minor collections.
	Immature bool
	// MarkedKnown declares that MarkedObjects/MarkedWords hold the exact
	// count and total size of the objects the trace marked. A lazy
	// full-heap sweep then skips its stats census entirely — every census
	// product derives from the totals, and the previous sweep's parse-range
	// table is still valid for the deferred reclamation (allocation only
	// subdivides chunks between sweeps) — making the post-mark pause
	// O(1). Ignored by the eager sweep, which computes the same statistics
	// from its own heap walk, and by Immature sweeps (a minor trace does not
	// visit mature survivors, so the totals do not describe the post-sweep
	// live set).
	MarkedKnown   bool
	MarkedObjects uint64
	MarkedWords   uint64
}

// walkless reports whether a lazy sweep under these options can arm without
// its census walk (see MarkedKnown).
func (o *SweepOptions) walkless() bool { return o.MarkedKnown && !o.Immature }

// keeps reports whether a sweep under these options keeps the allocated
// chunk whose header is hd.
func (o *SweepOptions) keeps(hd uint64) bool {
	return hd&FlagMark != 0 || (o.Immature && hd&FlagMature != 0)
}

// Sweep performs the sweep phase of a mark-sweep collection: it walks the
// heap linearly, reclaims every unmarked object, coalesces adjacent free
// chunks, rebuilds the free lists from scratch, and clears the mark bit on
// survivors. Under SetLazySweep it runs only a census here and defers that
// same walk to on-demand per-range sweeps (segment.go). Both modes return
// identical statistics and — once a lazy sweep completes — leave identical
// heaps.
//
// Sweep assumes a trace has just run: surviving objects have FlagMark set.
// A pending lazy sweep must be completed (CompleteSweep) before the trace,
// not merely before Sweep — tracing over stale mark bits is heap
// corruption — so Sweep panics if one is still outstanding.
func (h *Heap) Sweep(opts SweepOptions) SweepStats {
	h.AssertNoBuffers("Sweep")
	// Bumped before any reclamation so an allocation stamped with the old
	// epoch is never mistaken for one this pass provably left alive.
	h.sweepEpoch.Add(1)
	if h.lazy.pending {
		panic("vmheap: Sweep with a lazy sweep still pending (CompleteSweep must run before the trace)")
	}
	// The telemetry span covers the collection-time portion only: under the
	// lazy mode that is the census/arm pause, and each deferred range sweep
	// emits its own PhaseLazySegment span when it actually runs.
	start := h.tele.Begin(telemetry.PhaseSweep)
	var st SweepStats
	switch {
	case !h.lazySweep:
		st = h.sweepEager(opts)
	case opts.walkless():
		st = h.sweepArm(opts)
	default:
		st = h.sweepCensus(opts)
	}
	h.tele.End(telemetry.PhaseSweep, start)
	return st
}

// sweepEager is the lazy sweep's deferred walk run at once over the whole
// heap (the published configuration).
func (h *Heap) sweepEager(opts SweepOptions) SweepStats {
	w := sweepWalk{opts: opts, rec: h.beginBounds()}
	h.resetFreeLists()
	h.reclaim(&w, heapBase, h.end())
	h.finishReclaim(&w)
	h.settle(w.st)
	return w.st
}

// settle sets the heap's occupancy accounting to a sweep's verdict.
func (h *Heap) settle(st SweepStats) {
	h.liveObjs = st.LiveObjects
	h.liveWords = st.LiveWords
	h.freeWords = h.CapacityWords() - st.LiveWords
}

// sweepWalk is the state the reclamation walk carries from one address range
// to the next: an eager sweep keeps it on the stack for its single range, a
// lazy sweep in lazyState between deferred ranges.
type sweepWalk struct {
	opts SweepOptions
	// runStart/runLen are the open run of free words (runLen 0 = none). A
	// run is installed only when a survivor closes it, so it coalesces
	// across range boundaries.
	runStart, runLen uint32
	rec              boundsRec
	st               SweepStats
}

// reclaim is the sweep: the one walk that rewrites headers. Over [start,end)
// — chunk boundaries both, everything below start already walked — it
// absorbs existing free chunks into the open run, keeps survivors (OnLive,
// mark and ClearFlags cleared, SetFlags set), reclaims garbage (OnFree) into
// the open run, installs each run a survivor closes, and notes every
// installed chunk and survivor as a parse-range boundary.
func (h *Heap) reclaim(w *sweepWalk, start, end uint32) {
	opts := w.opts
	unmark := FlagMark | opts.ClearFlags
	runStart, runLen := w.runStart, w.runLen
	st := w.st
	for addr := start; addr < end; {
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

		case opts.keeps(hd):
			if opts.OnLive != nil {
				opts.OnLive(Ref(addr), hd)
			}
			h.words[addr] = (hd &^ unmark) | opts.SetFlags
			st.LiveObjects++
			st.LiveWords += uint64(size)
			if runLen != 0 {
				w.rec.note(runStart)
				h.installChunk(Ref(runStart), runLen)
				st.FreeChunks++
				runLen = 0
			}
			w.rec.note(addr)

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
	w.runStart, w.runLen = runStart, runLen
	w.st = st
}

// finishReclaim ends a walk that has reached the arena's end: the open run is
// installed and the parse-range table the walk recorded is published.
func (h *Heap) finishReclaim(w *sweepWalk) {
	if w.runLen != 0 {
		w.rec.note(w.runStart)
		h.installChunk(Ref(w.runStart), w.runLen)
		w.st.FreeChunks++
		w.runLen = 0
	}
	h.finishBounds(&w.rec)
	h.debugCheck()
}

// ClearMarks clears the mark bit (and any extra bits in mask) on every
// object without sweeping. Used by tools and tests that trace the heap
// outside a collection.
func (h *Heap) ClearMarks(mask uint64) {
	h.Iterate(func(r Ref, _ uint64) {
		h.ClearFlags(r, FlagMark|mask)
	})
}
