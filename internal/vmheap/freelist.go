package vmheap

// FreeChunk describes one chunk on a free list (debug and differential
// testing; the allocator itself never materializes this form).
type FreeChunk struct {
	Ref   Ref
	Words uint32
}

// EachFreeChunk visits every free-list chunk in the allocator's
// deterministic order — the exact bins in ascending size order, then the
// large list, each in list order — without materializing a slice. It stops
// early if fn returns false and reports whether the walk ran to completion.
func (h *Heap) EachFreeChunk(fn func(FreeChunk) bool) bool {
	walk := func(head Ref) bool {
		for r := head; r != Nil; r = Ref(h.words[uint32(r)+freeNextSlot]) {
			if !fn(FreeChunk{Ref: r, Words: headerSize(h.words[r])}) {
				return false
			}
		}
		return true
	}
	for _, head := range h.bins {
		if !walk(head) {
			return false
		}
	}
	return walk(h.largeBin)
}

// FreeChunkCount returns the number of chunks on the free lists without
// allocating.
func (h *Heap) FreeChunkCount() int {
	n := 0
	h.EachFreeChunk(func(FreeChunk) bool { n++; return true })
	return n
}

// FreeChunks returns every free-list chunk in the EachFreeChunk order. Two
// heaps that went through identical allocation and collection histories
// return identical slices, which the differential tests use to compare
// collector modes.
func (h *Heap) FreeChunks() []FreeChunk {
	out := make([]FreeChunk, 0, h.FreeChunkCount())
	h.EachFreeChunk(func(c FreeChunk) bool {
		out = append(out, c)
		return true
	})
	return out
}
