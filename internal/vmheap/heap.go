package vmheap

import (
	"errors"
	"fmt"

	"repro/internal/telemetry"
)

// heapBase is the word index of the first allocatable word. Index 0 is
// reserved so that Ref(0) is always null; index 1 is reserved to keep the
// first object two-word aligned at index 2.
const heapBase = 2

// MinHeapWords is the smallest arena the heap will accept.
const MinHeapWords = 64

// ErrHeapExhausted is returned by Alloc when no free chunk can satisfy a
// request. The caller (the runtime) is expected to collect and retry.
var ErrHeapExhausted = errors.New("vmheap: heap exhausted")

// Heap is a word-addressable managed heap with a segregated free-list
// allocator. It is not safe for concurrent use; the runtime serializes
// access (the collector is stop-the-world).
type Heap struct {
	words []uint64

	// Segregated free lists. bins[i] heads a list of chunks of exactly
	// (i+1)*2 words for i < numExactBins; the final largeBin list holds
	// everything bigger, unsorted. A free chunk stores FlagFree plus its
	// size in the header word and the next chunk's Ref in word 1.
	bins     [numExactBins]Ref
	largeBin Ref

	// binOcc is the exact-bin occupancy bitmap: bit i is set iff bins[i]
	// is non-empty, giving carve an O(1) next-non-empty-bin lookup.
	binOcc uint64

	// activeBuffers counts outstanding bump-pointer allocation buffers
	// (buffer.go). While any buffer is active the arena is not linearly
	// parseable, so sweeps and heap walks refuse to run. bufCarves and
	// bufAllocs count carved buffers and the allocations retired through
	// them over the heap lifetime, so tests and reports can confirm the
	// fast path actually engaged.
	activeBuffers int
	bufCarves     uint64
	bufAllocs     uint64

	liveWords  uint64 // words currently occupied by objects (incl. headers)
	freeWords  uint64 // words currently on free lists (incl. headers)
	liveObjs   uint64
	allocCount uint64 // total successful allocations over the heap lifetime
	allocWords uint64 // total words ever allocated

	// tele, when non-nil, receives sweep-phase spans and buffer
	// carve/retire events (core wires it from Config.Telemetry). Nil — the
	// default, and the published configuration — costs one predictable
	// branch per emit point.
	tele *telemetry.Recorder
}

// numExactBins is the number of exact-size free-list bins. Bin i serves
// chunks of (i+1)*2 words, so exact bins cover sizes 2..64 words.
const numExactBins = 32

// New creates a heap with capacity capWords words (rounded down to an even
// number). It panics if capWords is below MinHeapWords; a heap that cannot
// hold a single object is a configuration error, not a runtime condition.
func New(capWords int) *Heap {
	if capWords < MinHeapWords {
		panic(fmt.Sprintf("vmheap: capacity %d below minimum %d", capWords, MinHeapWords))
	}
	cap := uint32(capWords) &^ 1
	h := &Heap{words: make([]uint64, cap)}
	h.resetFreeLists()
	h.installChunk(heapBase, cap-heapBase)
	h.freeWords = h.CapacityWords()
	return h
}

// SetTelemetry attaches a telemetry recorder; the heap then emits sweep
// spans and buffer carve/retire events into it. nil detaches (the default).
func (h *Heap) SetTelemetry(rec *telemetry.Recorder) { h.tele = rec }

// end is the arena's exclusive upper bound: one past the last word.
func (h *Heap) end() uint32 { return uint32(len(h.words)) }

// CapacityWords returns the number of allocatable words in the arena.
func (h *Heap) CapacityWords() uint64 { return uint64(h.end() - heapBase) }

// LiveWords returns the number of words currently occupied by objects.
func (h *Heap) LiveWords() uint64 { return h.liveWords }

// FreeWords returns the number of words currently on free lists.
func (h *Heap) FreeWords() uint64 { return h.freeWords }

// LiveObjects returns the number of objects currently allocated.
func (h *Heap) LiveObjects() uint64 { return h.liveObjs }

// TotalAllocs returns the number of successful allocations over the heap's
// lifetime.
func (h *Heap) TotalAllocs() uint64 { return h.allocCount }

// TotalAllocWords returns the total number of words ever allocated.
func (h *Heap) TotalAllocWords() uint64 { return h.allocWords }

// Header returns the raw header word of the object at r.
func (h *Heap) Header(r Ref) uint64 { return h.words[r] }

// ClassID returns the class identifier of the object at r.
func (h *Heap) ClassID(r Ref) uint32 { return headerClass(h.words[r]) }

// KindOf returns the layout kind of the object at r.
func (h *Heap) KindOf(r Ref) Kind { return headerKind(h.words[r]) }

// SizeWords returns the total size in words (including header) of the
// object at r.
func (h *Heap) SizeWords(r Ref) uint32 { return headerSize(h.words[r]) }

// Flags returns the flag byte of the object at r masked by mask.
func (h *Heap) Flags(r Ref, mask uint64) uint64 { return h.words[r] & mask }

// SetFlags sets the given flag bits on the object at r.
func (h *Heap) SetFlags(r Ref, mask uint64) { h.words[r] |= mask }

// ClearFlags clears the given flag bits on the object at r.
func (h *Heap) ClearFlags(r Ref, mask uint64) { h.words[r] &^= mask }

// Word returns field word i of the object at r. Word 0 is the header; a
// scalar object's fields occupy words 1..size-1.
func (h *Heap) Word(r Ref, i uint32) uint64 { return h.words[uint32(r)+i] }

// SetWord stores v into field word i of the object at r.
func (h *Heap) SetWord(r Ref, i uint32, v uint64) { h.words[uint32(r)+i] = v }

// RefAt reads field word i of the object at r as a reference.
func (h *Heap) RefAt(r Ref, i uint32) Ref { return Ref(h.words[uint32(r)+i]) }

// SetRefAt stores a reference into field word i of the object at r.
func (h *Heap) SetRefAt(r Ref, i uint32, v Ref) { h.words[uint32(r)+i] = uint64(v) }

// ArrayLen returns the element count of the array object at r.
func (h *Heap) ArrayLen(r Ref) uint32 { return uint32(h.words[r+1]) }

// arrayHeaderWords is the number of words before array elements begin
// (header word + length word).
const arrayHeaderWords = 2

// ArrayWord returns element i of the array object at r.
func (h *Heap) ArrayWord(r Ref, i uint32) uint64 {
	return h.words[uint32(r)+arrayHeaderWords+i]
}

// SetArrayWord stores v into element i of the array object at r.
func (h *Heap) SetArrayWord(r Ref, i uint32, v uint64) {
	h.words[uint32(r)+arrayHeaderWords+i] = v
}

// CopyArrayWords moves n element words from index si of the array at src to
// index di of the array at dst, as memmove does: the two ranges may overlap
// within one array in either direction. The caller has checked both ranges
// against the arrays' lengths.
func (h *Heap) CopyArrayWords(dst Ref, di uint32, src Ref, si uint32, n uint32) {
	d, s := h.ArraySlotIndex(dst, di), h.ArraySlotIndex(src, si)
	copy(h.words[d:d+n], h.words[s:s+n])
}

// Reference stores address their slot by absolute arena word index, so a
// scalar field and an array element share one store path.

// FieldSlotIndex returns the arena word index of scalar field off of obj.
func (h *Heap) FieldSlotIndex(obj Ref, off uint32) uint32 { return uint32(obj) + off }

// ArraySlotIndex returns the arena word index of element i of the reference
// array at arr.
func (h *Heap) ArraySlotIndex(arr Ref, i uint32) uint32 {
	return uint32(arr) + arrayHeaderWords + i
}

// SetSlotRef stores a reference into arena word i.
func (h *Heap) SetSlotRef(i uint32, v Ref) { h.words[i] = uint64(v) }

// IsObject reports whether r refers to an allocated object (as opposed to
// null or a free chunk). It assumes r is either Nil or a Ref previously
// returned by Alloc whose object may since have been swept.
func (h *Heap) IsObject(r Ref) bool {
	return r != Nil && h.words[r]&FlagFree == 0
}

// Bounds check helper used by debugging tools.
func (h *Heap) valid(r Ref) bool {
	return r >= heapBase && int(r) < len(h.words)
}

// Iterate walks every allocated object in address order and calls fn with
// its Ref and header. Free chunks are skipped. fn must not allocate.
func (h *Heap) Iterate(fn func(r Ref, header uint64)) {
	h.AssertNoBuffers("Iterate")
	end := h.end()
	for addr := uint32(heapBase); addr < end; {
		hd := h.words[addr]
		size := headerSize(hd)
		if size == 0 {
			panic(fmt.Sprintf("vmheap: corrupt header at %d: %#x", addr, hd))
		}
		if hd&FlagFree == 0 {
			fn(Ref(addr), hd)
		}
		addr += size
	}
}
