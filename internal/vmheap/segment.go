package vmheap

// Sweep segmentation. The arena is partitioned into parse ranges: address
// intervals whose start is always a chunk header, recorded in segBounds.
// Every sweep pass rebuilds the table (into segScratch, swapped at the end)
// by noting chunk starts as it walks, so the table always describes a state
// the heap has actually been in. Between sweeps chunk boundaries only
// subdivide — Alloc splits chunks, never merges them — so a recorded
// boundary stays a valid header until the next sweep coalesces across it.
// That invariant is what lets the lazy sweep start parsing mid-heap: the
// collection-time pause shrinks to a census (a header-only walk that
// computes exact sweep statistics and a fresh table) and the real
// reclamation happens one range at a time, on demand, when the allocator
// runs out of swept chunks.
//
// Lazy ranges are swept in strictly ascending address order by the eager
// sweep's own walk (Heap.reclaim), its open free run carried across range
// boundaries, so a completed lazy sweep coalesces — and installs free
// chunks — exactly like the eager sweep.

import (
	"fmt"

	"repro/internal/telemetry"
)

// Nominal segment sizing: aim for targetSegments parse ranges, but keep
// segments large enough that per-segment overhead is noise on tiny test
// heaps and small enough that demand sweeping stays incremental on big ones.
const (
	targetSegments  = 256
	minSegmentWords = 256
	maxSegmentWords = 1 << 16
)

// segmentWordsFor picks the nominal segment size for a heap of capWords.
func segmentWordsFor(capWords int) uint32 {
	seg := capWords / targetSegments
	if seg < minSegmentWords {
		seg = minSegmentWords
	}
	if seg > maxSegmentWords {
		seg = maxSegmentWords
	}
	return align2(uint32(seg))
}

// lazyState is the deferred portion of a lazy sweep between the census and
// the final on-demand range sweep.
type lazyState struct {
	pending bool
	// next indexes the first unswept parse range; everything below it has
	// been reclaimed. Ranges are swept strictly in ascending order.
	next int
	// walk is the reclamation walk suspended at segBounds[next]. Its
	// recorder re-records the parse-range table as ranges are reclaimed:
	// the census table holds pre-sweep boundaries, which go stale wherever
	// the deferred pass merges a free run across them.
	walk sweepWalk
	// reported is what the census (or the walkless arm) told the collector;
	// under DebugChecks the completed walk's own totals must equal it.
	reported SweepStats
}

// SweepModeStats counts lazy-sweep activity. All fields stay zero under the
// eager default.
type SweepModeStats struct {
	// LazySweeps counts sweep passes deferred by lazy mode (census only).
	LazySweeps uint64
	// DemandSegments counts parse ranges swept on demand by the allocator;
	// CompletionSegments counts ranges swept by CompleteSweep (forced
	// before a new trace or by heap introspection). Their durations are
	// telemetry's PhaseLazySegment spans.
	DemandSegments     uint64
	CompletionSegments uint64
}

// initSegments sizes the parse-range table for a fresh heap: one range
// covering the whole arena (the initial single free chunk).
func (h *Heap) initSegments() {
	h.segWords = segmentWordsFor(len(h.words))
	n := (len(h.words) + int(h.segWords) - 1) / int(h.segWords)
	h.segBounds = make([]Ref, n+1)
	h.segScratch = make([]Ref, n+1)
	end := Ref(h.end())
	h.segBounds[0] = heapBase
	for i := 1; i <= n; i++ {
		h.segBounds[i] = end
	}
}

// numSegments returns the number of parse ranges in the table.
func (h *Heap) numSegments() int { return len(h.segBounds) - 1 }

// SetLazySweep selects whether subsequent sweeps defer
// reclamation to range-at-a-time on-demand sweeps. The default, off, is the
// eager sweep the published figures use.
func (h *Heap) SetLazySweep(on bool) {
	if h.lazy.pending {
		panic("vmheap: SetLazySweep during a pending lazy sweep")
	}
	h.lazySweep = on
}

// SweepModeStats returns the lazy sweep counters.
func (h *Heap) SweepModeStats() SweepModeStats { return h.sweepStats }

// SweepPending reports whether a lazy sweep has unswept ranges outstanding.
func (h *Heap) SweepPending() bool { return h.lazy.pending }

// SegmentStates reports the lazy state machine: total parse ranges and how
// many of them the pending sweep has reclaimed. With no sweep pending,
// swept == total.
func (h *Heap) SegmentStates() (swept, total int) {
	total = h.numSegments()
	if !h.lazy.pending {
		return total, total
	}
	return h.lazy.next, total
}

// CompleteSweep drives a pending lazy sweep to completion. The collectors
// call it before every trace — stale mark bits on not-yet-swept survivors
// would corrupt the next mark phase — and the introspection entry points
// (Iterate, Verify, FreeChunks) call it so observations are exact.
func (h *Heap) CompleteSweep() {
	for h.lazy.pending {
		h.sweepSegment(false)
	}
}

// PendingPromotion reports whether r is a survivor of a pending lazy sweep
// that will be promoted to the mature generation when its range is swept.
// The generational write barrier must treat such objects as already mature:
// a store into one would otherwise not be remembered, and an immature child
// reachable only through it would be wrongly reclaimed by the next minor
// collection.
func (h *Heap) PendingPromotion(r Ref) bool {
	if !h.lazy.pending || h.lazy.walk.opts.SetFlags&FlagMature == 0 || r == Nil {
		return false
	}
	if r < h.segBounds[h.lazy.next] {
		return false // already swept; the header speaks for itself
	}
	hd := h.words[r]
	return hd&FlagFree == 0 && h.lazy.walk.opts.keeps(hd)
}

// --- parse-range boundary recording ------------------------------------

// boundsRec assigns parse-range starts while a sweep walks the arena in
// ascending address order: range i begins at the first noted header at or
// above the nominal base i*segWords. Entries the walk never reaches stay
// unassigned for the caller to fill.
type boundsRec struct {
	out  []Ref // the table being recorded; its last entry is the arena end
	segW uint32
	next int // next range index to assign
}

func (b *boundsRec) note(addr uint32) {
	for b.next < len(b.out)-1 && uint32(b.next)*b.segW <= addr {
		b.out[b.next] = Ref(addr)
		b.next++
	}
}

// beginBounds starts a full-heap recording into the scratch table.
func (h *Heap) beginBounds() boundsRec {
	return boundsRec{out: h.segScratch, segW: h.segWords}
}

// finishBounds completes a full-heap recording — ranges past the last noted
// header are empty — and publishes the scratch table.
func (h *Heap) finishBounds(rec *boundsRec) {
	end := Ref(h.end())
	for i := rec.next; i <= h.numSegments(); i++ {
		h.segScratch[i] = end
	}
	h.segBounds, h.segScratch = h.segScratch, h.segBounds
}

// --- lazy sweep ---------------------------------------------------------

// sweepCensus is the collection-time half of a lazy sweep: a header-only
// walk that computes the exact sweep statistics (so gc.Stats is identical
// to the eager mode's), rebuilds the parse-range table from the pre-sweep
// chunk boundaries, empties the free lists, and arms the deferred state.
// No header is rewritten and no hook runs here; both are deferred to the
// per-range sweeps, which always run before any chunk of their range is
// reused.
func (h *Heap) sweepCensus(opts SweepOptions) SweepStats {
	var st SweepStats
	rec := h.beginBounds()
	addr := uint32(heapBase)
	end := h.end()
	inRun := false
	for addr < end {
		hd := h.words[addr]
		size := headerSize(hd)
		if size == 0 || addr+size > end {
			panic(fmt.Sprintf("vmheap: corrupt header at %d during sweep census: %#x", addr, hd))
		}
		rec.note(addr)
		switch {
		case hd&FlagFree != 0:
			if !inRun {
				st.FreeChunks++
				inRun = true
			}
		case opts.keeps(hd):
			st.LiveObjects++
			st.LiveWords += uint64(size)
			inRun = false
		default:
			if !inRun {
				st.FreeChunks++
				inRun = true
			}
			st.FreedObjects++
			st.FreedWords += uint64(size)
		}
		addr += size
	}
	h.finishBounds(&rec)
	return h.armLazy(opts, st)
}

// armLazy is the tail the census and the walkless arm share: the free lists
// empty, the accounting takes the reported verdict, and the deferred walk is
// armed at the arena's first range. The walk records the post-sweep boundaries
// into the scratch buffer; the published table keeps describing the pre-sweep
// parse until every range is reclaimed.
func (h *Heap) armLazy(opts SweepOptions, st SweepStats) SweepStats {
	h.resetFreeLists()
	h.settle(st)
	h.lazy = lazyState{
		pending:  true,
		walk:     sweepWalk{opts: opts, rec: h.beginBounds()},
		reported: st,
	}
	h.sweepStats.LazySweeps++
	return st
}

// sweepArm is the walkless variant of the lazy sweep's collection-time half.
// When the trace supplies exact marked totals (SweepOptions.MarkedKnown),
// the census walk is redundant: the survivor counts are the totals, the
// freed counts are the allocator's live accounting minus them, and the
// parse-range table published by the previous sweep is still a valid parse
// of the heap (allocation only subdivides chunks), so the deferred range
// sweeps reuse it as-is. The post-mark pause becomes O(1) in heap size.
// FreeChunks is the one census product that genuinely needs a walk — the
// post-coalesce chunk count is unknowable before reclamation — and is
// reported as zero; the collectors never consume it.
func (h *Heap) sweepArm(opts SweepOptions) SweepStats {
	if opts.MarkedObjects > h.liveObjs || opts.MarkedWords > h.liveWords {
		panic(fmt.Sprintf("vmheap: marked totals exceed heap accounting (%d/%d objects, %d/%d words)",
			opts.MarkedObjects, h.liveObjs, opts.MarkedWords, h.liveWords))
	}
	return h.armLazy(opts, SweepStats{
		LiveObjects:  opts.MarkedObjects,
		LiveWords:    opts.MarkedWords,
		FreedObjects: h.liveObjs - opts.MarkedObjects,
		FreedWords:   h.liveWords - opts.MarkedWords,
	})
}

// sweepSegment reclaims the next unswept parse range of a pending lazy
// sweep: the eager sweep's walk, resumed where the previous range left it.
// It reports false when no sweep is pending.
func (h *Heap) sweepSegment(demand bool) bool {
	if !h.lazy.pending {
		return false
	}
	start := h.tele.Begin(telemetry.PhaseLazySegment)
	k := h.lazy.next
	h.reclaim(&h.lazy.walk, uint32(h.segBounds[k]), uint32(h.segBounds[k+1]))
	h.lazy.next = k + 1
	if h.lazy.next >= h.numSegments() {
		// Last range: close the carried run, publish the post-sweep
		// boundary table, and retire the state machine.
		h.finishReclaim(&h.lazy.walk)
		if DebugChecks {
			h.checkLazyTotals()
		}
		h.lazy = lazyState{}
	}
	if demand {
		h.sweepStats.DemandSegments++
	} else {
		h.sweepStats.CompletionSegments++
	}
	h.tele.End(telemetry.PhaseLazySegment, start)
	return true
}

// checkLazyTotals panics unless the completed deferred walk counted what
// the collection-time half reported to the collector. The walkless arm
// reports no FreeChunks (sweepArm), so that figure is held to the census
// only.
func (h *Heap) checkLazyTotals() {
	got, want := h.lazy.walk.st, h.lazy.reported
	if h.lazy.walk.opts.walkless() {
		got.FreeChunks = want.FreeChunks
	}
	if got != want {
		panic(fmt.Sprintf("vmheap: lazy sweep reclaimed %+v after reporting %+v", got, want))
	}
}
