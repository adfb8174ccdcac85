package vmheap

import "fmt"

// Zone sharding. NewZoned splits one contiguous arena into N peer Heaps,
// each owning a disjoint word range with private free lists, segment table,
// sweep state, sweep epoch, and occupancy accounting. Object words remain
// globally addressable — a Ref is still an absolute arena index, and every
// peer's accessors work on any zone's objects — so cross-zone references
// are ordinary stores, but allocation, sweeping, and bulk retirement are
// zone-local: one zone can run a full sweep (eager or lazy)
// while the other zones' allocation buffers stay active, which is the
// pause-isolation property the zoned runtime is built on.

// MinZoneWords is the smallest extent a single zone may have.
const MinZoneWords = MinHeapWords

// NewZoned creates a zoned arena: capWords words (rounded down to even)
// partitioned into zones contiguous two-word-aligned ranges, returned in
// ascending address order. Every returned Heap shares the same words slice
// and lists all of them as peers. It panics when zones < 2 or a zone's
// extent would fall below MinZoneWords.
func NewZoned(capWords, zones int) []*Heap {
	if zones < 2 {
		panic(fmt.Sprintf("vmheap: NewZoned with %d zones (need at least 2; use New for a single zone)", zones))
	}
	if capWords/zones < MinZoneWords {
		panic(fmt.Sprintf("vmheap: capacity %d words cannot give each of %d zones the minimum %d", capWords, zones, MinZoneWords))
	}
	cap := uint32(capWords) &^ 1
	words := make([]uint64, cap)
	peers := make([]*Heap, zones)
	lo := uint32(heapBase)
	for i := range peers {
		hi := uint32(uint64(heapBase)+uint64(cap-heapBase)*uint64(i+1)/uint64(zones)) &^ 1
		if i == zones-1 {
			hi = cap
		}
		peers[i] = newZone(words, lo, hi, i)
		lo = hi
	}
	for _, p := range peers {
		p.peers = peers
	}
	return peers
}

// Zoned reports whether this heap is one zone of a multi-zone arena.
func (h *Heap) Zoned() bool { return len(h.peers) > 1 }

// ZoneID returns this zone's index within the arena (0 for an unzoned heap).
func (h *Heap) ZoneID() int { return h.zoneID }

// ZoneCount returns the number of zones in the arena (1 when unzoned).
func (h *Heap) ZoneCount() int { return len(h.peers) }

// Peers returns every zone of the arena in ascending address order,
// including the receiver. Callers must not mutate the slice.
func (h *Heap) Peers() []*Heap { return h.peers }

// ZoneRange returns the half-open word range [lo, hi) this zone owns.
func (h *Heap) ZoneRange() (lo, hi uint32) { return h.lo, h.hi }

// ArenaWords returns the arena extent in words including the reserved
// base: an exclusive upper bound on every Ref (side tables size their slot
// space by it).
func (h *Heap) ArenaWords() uint32 { return uint32(len(h.words)) }

// Contains reports whether r falls inside this zone's range.
func (h *Heap) Contains(r Ref) bool { return uint32(r) >= h.lo && uint32(r) < h.hi }

// ZoneOf returns the zone whose range contains r. For an unzoned heap it
// is the receiver. r must be a valid in-arena reference.
func (h *Heap) ZoneOf(r Ref) *Heap {
	if len(h.peers) == 1 {
		return h
	}
	for _, p := range h.peers {
		if uint32(r) < p.hi {
			return p
		}
	}
	panic(fmt.Sprintf("vmheap: ref %d beyond the arena", r))
}

// ZoneIndexOf returns the index of the zone whose range contains r.
func (h *Heap) ZoneIndexOf(r Ref) int { return h.ZoneOf(r).zoneID }

// AssertNoBuffersAll panics if any zone of the arena has an allocation
// buffer outstanding. Whole-heap operations (Iterate, Verify, whole-heap
// Sweep) use it; zone-local sweeps assert only their own zone's buffers,
// which is what lets other zones keep bump-allocating during a zone
// collection.
func (h *Heap) AssertNoBuffersAll(phase string) {
	for _, p := range h.peers {
		p.AssertNoBuffers(phase)
	}
}

// SlotRef reads the absolute arena word i as a reference. The cross-zone
// remembered set records entry locations as absolute word indices (object
// Ref + field offset already folded in); the zone tracer roots through
// these slots.
func (h *Heap) SlotRef(i uint32) Ref { return Ref(h.words[i]) }

// SetSlotRef stores a reference into the absolute arena word i (used by
// the zone tracer to null remembered-set slots under a Force verdict).
func (h *Heap) SetSlotRef(i uint32, v Ref) { h.words[i] = uint64(v) }

// FieldSlotIndex returns the absolute arena word index of scalar field off
// of obj — the remembered-set key for that slot.
func (h *Heap) FieldSlotIndex(obj Ref, off uint32) uint32 { return uint32(obj) + off }

// ArraySlotIndex returns the absolute arena word index of element i of the
// reference array at arr — the remembered-set key for that slot.
func (h *Heap) ArraySlotIndex(arr Ref, i uint32) uint32 {
	return uint32(arr) + arrayHeaderWords + i
}

// SetFreeObserver installs fn to observe every object reclaimed by this
// zone's sweeps (after the sweep's own OnFree hook). nil uninstalls. The
// zoned runtime installs the remembered-set purger on every zone.
func (h *Heap) SetFreeObserver(fn func(Ref, uint64)) { h.freeObs = fn }

// chainFreeObserver appends this zone's free observer to onFree.
func (h *Heap) chainFreeObserver(onFree func(Ref, uint64)) func(Ref, uint64) {
	obs := h.freeObs
	if obs == nil {
		return onFree
	}
	if onFree == nil {
		return obs
	}
	return func(r Ref, hd uint64) {
		onFree(r, hd)
		obs(r, hd)
	}
}

// ZoneInfo summarizes one zone's local extent and occupancy.
type ZoneInfo struct {
	ID          int
	Lo, Hi      uint32
	LiveObjects uint64
	LiveWords   uint64
	FreeWords   uint64
}

// ZoneInfoAt returns zone i's occupancy summary alone, touching only that
// zone's counters. The zone-aware pacer reads zones it is not collecting
// while another zone's sweep mutates its own counters under its zone lock;
// ZoneInfos would read every zone's counters and race.
func (h *Heap) ZoneInfoAt(i int) ZoneInfo {
	p := h.peers[i]
	return ZoneInfo{
		ID: p.zoneID, Lo: p.lo, Hi: p.hi,
		LiveObjects: p.liveObjs, LiveWords: p.liveWords, FreeWords: p.freeWords,
	}
}

// ZoneInfos returns a per-zone occupancy summary in ascending zone order.
func (h *Heap) ZoneInfos() []ZoneInfo {
	out := make([]ZoneInfo, len(h.peers))
	for i, p := range h.peers {
		out[i] = ZoneInfo{
			ID: p.zoneID, Lo: p.lo, Hi: p.hi,
			LiveObjects: p.liveObjs, LiveWords: p.liveWords, FreeWords: p.freeWords,
		}
	}
	return out
}

// ResetZone bulk-frees every object in this zone and returns it to its
// freshly initialized state: one free chunk spanning the zone, empty
// segment table, accounting zeroed, and the sweep epoch bumped (so stale
// allocation pins into the zone can no longer certify). A pending lazy
// sweep is completed first so the freed totals describe the settled live
// set. The zone's free observer is NOT run here: the caller (core's
// Zone.Retire) purges the remembered sets wholesale by range, which
// subsumes the per-object purge. The zone must have no active allocation
// buffers.
func (h *Heap) ResetZone() SweepStats {
	h.AssertNoBuffers("ResetZone")
	// Epoch first, as in Sweep: an allocation stamped before this point
	// must never certify as provably live once reclamation begins.
	h.sweepEpoch.Add(1)
	h.ensureSwept()
	var st SweepStats
	st.FreedObjects = h.liveObjs
	st.FreedWords = h.liveWords
	st.FreeChunks = 1
	h.resetFreeLists()
	h.installChunk(Ref(h.lo), h.hi-h.lo)
	h.liveObjs = 0
	h.liveWords = 0
	h.freeWords = h.capLocal()
	h.initSegments()
	h.debugCheck()
	return st
}
