package vmheap

import (
	"fmt"
	"math/bits"
)

// freeNextSlot is the word offset within a free chunk that stores the Ref of
// the next chunk on the same free list.
const freeNextSlot = 1

// minChunkWords is the smallest representable free chunk: a header word plus
// a next pointer, rounded to alignment.
const minChunkWords = 2

// resetFreeLists empties every free-list bin.
func (h *Heap) resetFreeLists() {
	for i := range h.bins {
		h.bins[i] = Nil
	}
	h.binOcc = 0
	h.largeBin = Nil
}

// binFor returns the exact bin index for a chunk of size words, or -1 if the
// size belongs on the large list. size must be even and >= minChunkWords.
func binFor(size uint32) int {
	i := int(size/2) - 1
	if i < numExactBins {
		return i
	}
	return -1
}

// installChunk writes a free-chunk header of the given size at addr and
// pushes it onto the appropriate free list. size must be even and at least
// minChunkWords.
func (h *Heap) installChunk(addr Ref, size uint32) {
	h.words[addr] = makeHeader(KindScalar, 0, size) | FlagFree
	if b := binFor(size); b >= 0 {
		h.words[uint32(addr)+freeNextSlot] = uint64(h.bins[b])
		h.bins[b] = addr
		h.binOcc |= 1 << uint(b)
	} else {
		h.words[uint32(addr)+freeNextSlot] = uint64(h.largeBin)
		h.largeBin = addr
	}
}

// Alloc allocates an object of the given kind and class with the given
// payload: for KindScalar, fieldWords is the number of field words (the
// header is added by the heap); for array kinds, fieldWords is the element
// count (the header and length words are added). The object's words are
// zeroed. Alloc returns ErrHeapExhausted when no chunk can satisfy the
// request; the runtime then collects and retries.
func (h *Heap) Alloc(kind Kind, classID uint32, fieldWords uint32) (Ref, error) {
	if classID > MaxClassID {
		panic(fmt.Sprintf("vmheap: class id %d exceeds header capacity", classID))
	}
	size := ObjectWords(kind, fieldWords)
	if size > MaxObjectWords {
		return Nil, fmt.Errorf("vmheap: object of %d words exceeds maximum %d", size, MaxObjectWords)
	}

	addr := h.carve(size)
	if addr == Nil {
		return Nil, ErrHeapExhausted
	}
	// When the carved chunk could not be split (remainder below
	// minChunkWords) the object absorbs the whole chunk; the header must
	// record the chunk's true extent or a linear sweep would mis-parse
	// the heap. The padding words are zeroed and never referenced.
	size = headerSize(h.words[addr])

	// Zero the payload and install the header. The chunk header word is
	// overwritten; every other word must be cleared because free-list
	// links and stale object data may remain.
	clear(h.words[uint32(addr)+1 : uint32(addr)+size])
	h.words[addr] = makeHeader(kind, classID, size)
	if kind != KindScalar {
		h.words[addr+1] = uint64(fieldWords)
	}

	h.liveWords += uint64(size)
	h.freeWords -= uint64(size)
	h.liveObjs++
	h.allocCount++
	h.allocWords += uint64(size)
	return addr, nil
}

// ObjectWords returns the chunk size in words an object of the given kind
// and payload occupies: header word(s) plus fields, aligned and clamped to
// the minimum chunk size. The result can exceed MaxObjectWords; callers
// that care must check.
func ObjectWords(kind Kind, fieldWords uint32) uint32 {
	var size uint32
	switch kind {
	case KindScalar:
		size = 1 + fieldWords
	case KindRefArray, KindDataArray:
		size = arrayHeaderWords + fieldWords
	default:
		panic(fmt.Sprintf("vmheap: unknown kind %d", kind))
	}
	size = align2(size)
	if size < minChunkWords {
		size = minChunkWords
	}
	return size
}

// carve finds a free chunk of at least size words, removes it from its free
// list, splits off any remainder back onto the free lists, and returns its
// address. It returns Nil if no chunk is large enough.
func (h *Heap) carve(size uint32) Ref {
	// Exact bin first, then the next non-empty larger exact bin (found in
	// O(1) via the occupancy bitmap), then the large list.
	if b := binFor(size); b >= 0 {
		if addr := h.bins[b]; addr != Nil {
			h.popBin(b, addr)
			return addr
		}
		// A larger exact chunk can be split. The remainder must be at
		// least minChunkWords, so candidates start at the bin holding
		// size+minChunkWords.
		lo := b + int(minChunkWords/2)
		if mask := h.binOcc >> uint(lo); mask != 0 {
			i := lo + bits.TrailingZeros64(mask)
			addr := h.bins[i]
			h.popBin(i, addr)
			h.split(addr, headerSize(h.words[addr]), size)
			return addr
		}
	}
	return h.carveLarge(size)
}

// popBin unlinks the head chunk addr from exact bin b, clearing the bin's
// occupancy bit when the list empties.
func (h *Heap) popBin(b int, addr Ref) {
	next := Ref(h.words[uint32(addr)+freeNextSlot])
	h.bins[b] = next
	if next == Nil {
		h.binOcc &^= 1 << uint(b)
	}
}

// unlinkChunk removes the free chunk of the given size at addr from its
// free list. The chunk must be listed: the only caller is buffer-tail
// coalescing, and any free-flagged chunk adjacent to a carved buffer is a
// post-sweep subdivision sitting on the lists. The walk is usually O(1): the
// merge target is almost always the carve's own split remainder, still at
// the head of its bin.
func (h *Heap) unlinkChunk(addr Ref, size uint32) {
	b := binFor(size)
	head := h.largeBin
	if b >= 0 {
		head = h.bins[b]
	}
	prev := Nil
	for c := head; c != Nil; c = Ref(h.words[uint32(c)+freeNextSlot]) {
		if c != addr {
			prev = c
			continue
		}
		next := Ref(h.words[uint32(c)+freeNextSlot])
		switch {
		case prev != Nil:
			h.words[uint32(prev)+freeNextSlot] = uint64(next)
		case b >= 0:
			h.bins[b] = next
			if next == Nil {
				h.binOcc &^= 1 << uint(b)
			}
		default:
			h.largeBin = next
		}
		return
	}
	panic(fmt.Sprintf("vmheap: free chunk at %d (%d words) not on its free list", addr, size))
}

// carveLarge first-fit scans the large list for a chunk of at least size
// words.
func (h *Heap) carveLarge(size uint32) Ref {
	prev := Nil
	addr := h.largeBin
	for addr != Nil {
		chunkSize := headerSize(h.words[addr])
		next := Ref(h.words[uint32(addr)+freeNextSlot])
		if chunkSize >= size {
			if prev == Nil {
				h.largeBin = next
			} else {
				h.words[uint32(prev)+freeNextSlot] = uint64(next)
			}
			h.split(addr, chunkSize, size)
			return addr
		}
		prev = addr
		addr = next
	}
	return Nil
}

// split trims a carved chunk of chunkSize words down to need words,
// returning the tail to the free lists. If the remainder would be too small
// to describe, the whole chunk is used (internal fragmentation).
func (h *Heap) split(addr Ref, chunkSize, need uint32) {
	rem := chunkSize - need
	if rem < minChunkWords {
		return
	}
	h.installChunk(addr+Ref(need), rem)
	// Shrink the carved chunk's header so the caller sees exactly `need`
	// words. The header is rewritten by Alloc anyway, but carve's callers
	// rely on headerSize for accounting.
	h.words[addr] = makeHeader(KindScalar, 0, need) | FlagFree
}
