package vmheap

import "fmt"

// Bump-pointer allocation buffers (TLAB-style). A buffer is a contiguous
// run of words carved off the free lists in one piece; objects are then
// allocated inside it by bumping a cursor, with no free-list search, no
// per-object zeroing (the whole buffer is cleared once at carve time), and
// no per-object heap accounting (the totals are flushed in one batch when
// the buffer is retired). Retiring a buffer installs the unused tail as an
// ordinary free chunk, so after retirement the arena is exactly as
// parseable as if every object had been allocated directly: the carved
// chunk has been subdivided into object headers plus one free chunk, which
// is the same invariant Alloc's split maintains. While any buffer is
// active the heap refuses to sweep or walk (AssertNoBuffers); the runtime
// retires every buffer before collections, heap dumps, and verification.

// MinBufferWords is the smallest buffer CarveBuffer will carve when
// falling back under fragmentation, and the smallest size the runtime
// accepts for its buffer configuration. Below this the carve/retire
// overhead outweighs the bump savings.
const MinBufferWords = 64

// AllocBuffer is one thread's bump allocation buffer. The zero value is
// inactive; CarveBuffer arms it and Retire disarms it.
type AllocBuffer struct {
	h    *Heap
	base uint32 // first word of the carved run
	pos  uint32 // next free word (base <= pos <= end)
	end  uint32 // one past the last word of the run
	objs uint64 // objects bump-allocated since the carve
	// flags is OR-ed into every bump-allocated header. The concurrent
	// collector carves buffers with FlagMark|FlagScanned while a cycle is
	// active so bump allocation stays black without a per-object collector
	// call; Retire's struct zeroing clears it with the rest of the state.
	flags uint64
}

// SetAllocFlags sets the header flag bits applied to every subsequent
// bump allocation from this buffer.
func (b *AllocBuffer) SetAllocFlags(flags uint64) { b.flags = flags }

// Active reports whether the buffer currently owns a carved run.
func (b *AllocBuffer) Active() bool { return b.h != nil }

// Pos returns the bump cursor (the address the next object would get).
// Only meaningful while the buffer is active.
func (b *AllocBuffer) Pos() uint32 { return b.pos }

// PendingObjects returns the number of allocations batched in the buffer
// and not yet flushed into the heap's counters.
func (b *AllocBuffer) PendingObjects() uint64 { return b.objs }

// UsedWords returns the words occupied by the buffer's objects so far.
func (b *AllocBuffer) UsedWords() uint64 { return uint64(b.pos - b.base) }

// TailWords returns the unused words remaining in the buffer.
func (b *AllocBuffer) TailWords() uint64 { return uint64(b.end - b.pos) }

// CarveBuffer carves a run of prefWords words off the free lists into b,
// halving the request down to max(minWords, MinBufferWords) under
// fragmentation. minWords is the size of the allocation that triggered the
// refill, so a successful carve always satisfies it. The run is bulk
// cleared once here; Alloc then only writes headers. Returns false (b left
// inactive) when even the smallest acceptable run cannot be carved — the
// caller falls back to direct allocation and, on exhaustion, collects.
func (h *Heap) CarveBuffer(b *AllocBuffer, minWords, prefWords uint32) bool {
	if b.Active() {
		panic("vmheap: CarveBuffer into an active buffer")
	}
	floor := minWords
	if floor < MinBufferWords {
		floor = MinBufferWords
	}
	want := align2(prefWords)
	if want < floor {
		want = floor
	}
	for {
		if addr := h.carve(want); addr != Nil {
			// The carved chunk can exceed the request when the remainder
			// was too small to split off; the buffer absorbs it.
			size := headerSize(h.words[addr])
			clear(h.words[addr : uint32(addr)+size])
			*b = AllocBuffer{h: h, base: uint32(addr), pos: uint32(addr), end: uint32(addr) + size}
			h.freeWords -= uint64(size)
			h.activeBuffers++
			h.bufCarves++
			h.tele.Carve(uint64(size))
			return true
		}
		if want <= floor {
			return false
		}
		want = align2(want / 2)
		if want < floor {
			want = floor
		}
	}
}

// Alloc bump-allocates an object in the buffer. The arguments and the
// resulting object layout are identical to Heap.Alloc; the payload needs
// no zeroing because the buffer was cleared at carve time and objects
// never overlap. Returns ok=false — leaving the buffer untouched — when
// the object does not fit (buffer exhausted, object over the heap
// maximum, or an argument Heap.Alloc would reject); the caller refills or
// falls back to the direct path, which validates and reports. The size
// computation is ObjectWords unrolled without its panic so this function
// stays within the compiler's inlining budget — it is the per-allocation
// fast path the buffers exist for. Where ObjectWords clamps sub-minimum
// sizes up to minChunkWords, this rejects them: valid field counts always
// align to at least minChunkWords, so the guard only fires on integer
// overflow, which must not be bump-allocated.
func (b *AllocBuffer) Alloc(kind Kind, classID uint32, fieldWords uint32) (Ref, bool) {
	size := align2(1 + fieldWords)
	if kind != KindScalar {
		size = align2(arrayHeaderWords + fieldWords)
	}
	pos := uint64(b.pos)
	if b.h == nil || kind > KindDataArray || classID > MaxClassID ||
		size < minChunkWords || size > MaxObjectWords ||
		pos+uint64(size) > uint64(b.end) {
		return Nil, false
	}
	b.h.words[pos] = makeHeader(kind, classID, size) | b.flags
	if kind != KindScalar {
		b.h.words[pos+1] = uint64(fieldWords)
	}
	b.pos += size
	b.objs++
	return Ref(pos), true
}

// Retire flushes the buffer's batched accounting into the heap and returns
// the unused tail to the free lists, leaving the buffer inactive. The tail
// is always a well-formed chunk: every object size is even, so the tail is
// even and, when non-zero, at least minChunkWords. After Retire the heap
// is linearly parseable across the buffer's former extent.
//
// The tail is coalesced with the chunk that follows the buffer when that
// chunk is free — typically the carve's own split remainder — preserving
// the no-adjacent-free-chunks invariant the direct allocator maintains. No
// backward merge is needed: the word before the tail is one of this
// buffer's own objects (CarveBuffer is always followed by at least one bump
// allocation before any retire the runtime issues, and free chunks are
// never created in front of a carved run while sweeping is excluded).
func (b *AllocBuffer) Retire() {
	h := b.h
	if h == nil {
		return
	}
	used := uint64(b.pos - b.base)
	h.liveWords += used
	h.liveObjs += b.objs
	h.allocCount += b.objs
	h.allocWords += used
	h.bufAllocs += b.objs
	h.tele.Retire(used, uint64(b.end-b.pos))
	if tail := b.end - b.pos; tail > 0 {
		size := tail
		if next := b.end; next < h.end() {
			if hd := h.words[next]; hd&FlagFree != 0 {
				nsz := headerSize(hd)
				h.unlinkChunk(Ref(next), nsz)
				size += nsz
			}
		}
		h.installChunk(Ref(b.pos), size)
		h.freeWords += uint64(tail)
	}
	h.activeBuffers--
	*b = AllocBuffer{}
}

// EachObjectFrom calls fn, in allocation (= address) order, for every
// object bump-allocated at position from or later. The runtime uses it to
// flush batched region-queue recording.
func (b *AllocBuffer) EachObjectFrom(from uint32, fn func(Ref)) {
	if b.h == nil {
		return
	}
	if from < b.base {
		from = b.base
	}
	for addr := from; addr < b.pos; addr += headerSize(b.h.words[addr]) {
		fn(Ref(addr))
	}
}

// ActiveBuffers returns the number of outstanding allocation buffers.
func (h *Heap) ActiveBuffers() int { return h.activeBuffers }

// BufferStats returns the number of buffers ever carved and the number of
// allocations retired through buffers (excluding any still batched in an
// active buffer). Both stay zero when the fast path is never used.
func (h *Heap) BufferStats() (carves, allocs uint64) { return h.bufCarves, h.bufAllocs }

// AssertNoBuffers panics if any allocation buffer is outstanding. Sweeps,
// heap walks, and the collector call it at entry: a buffer's unwritten
// tail has no parseable header, so collecting or walking with a buffer
// active would corrupt the heap. The runtime must retire all buffers
// first.
func (h *Heap) AssertNoBuffers(phase string) {
	if h.activeBuffers != 0 {
		panic(fmt.Sprintf("vmheap: %s with %d allocation buffer(s) outstanding; retire them first", phase, h.activeBuffers))
	}
}
