package vmheap

import "fmt"

// VerifyError describes one heap-integrity violation found by Verify.
type VerifyError struct {
	Addr Ref
	Msg  string
}

// Error implements the error interface.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("vmheap: verify: at %d: %s", e.Addr, e.Msg)
}

// RefFieldsOf enumerates the reference-slot count of an object for Verify;
// the classes registry provides it. Kept as a narrow interface so vmheap
// stays dependency-free.
type RefFieldsOf interface {
	RefOffsets(classID uint32) []uint16
}

// Verify walks the entire heap and checks its structural invariants:
//
//   - the heap parses: headers chain exactly to the end of the arena;
//   - no two adjacent free chunks (sweeps must coalesce maximally);
//   - free-list accounting matches the free words found by the walk;
//   - every reference field of every object is Nil or points at the
//     header of an allocated object;
//   - no object carries the mark bit outside a collection;
//   - every free-list bin is well formed (CheckFreeLists): no cycle, no
//     mis-binned chunk, no wrong occupancy bit.
//
// It returns all violations found (nil for a healthy heap). The layout
// argument supplies reference offsets per class; pass nil to skip the
// reference check (for heaps whose class registry is unavailable).
//
// Verify is the runtime's equivalent of a JVM's heap verifier: expensive
// (two full passes), intended for tests and debugging tools.
func (h *Heap) Verify(layout RefFieldsOf) []error {
	h.AssertNoBuffers("Verify")
	// The bins first: a list that fails them (a cycle, above all) cannot be
	// walked for the coverage check in pass 1.
	errs := h.CheckFreeLists()
	listsOK := len(errs) == 0
	fail := func(addr Ref, format string, args ...any) {
		errs = append(errs, &VerifyError{Addr: addr, Msg: fmt.Sprintf(format, args...)})
	}

	// Pass 1: parse the arena, collecting object starts and checking the
	// accounting and free-list coverage.
	starts := make(map[Ref]bool)
	if !h.verifyParse(starts, listsOK, fail) {
		return errs // cannot continue parsing
	}

	// Pass 2: every reference lands on an object header.
	checkRef := func(obj Ref, what string, c Ref) {
		if c == Nil {
			return
		}
		if c%2 != 0 {
			fail(obj, "%s holds unaligned ref %d", what, c)
			return
		}
		if !starts[c] {
			fail(obj, "%s holds dangling ref %d", what, c)
		}
	}
	for r := range starts {
		hd := h.words[r]
		switch headerKind(hd) {
		case KindScalar:
			if layout == nil {
				continue
			}
			for _, off := range layout.RefOffsets(headerClass(hd)) {
				checkRef(r, fmt.Sprintf("field +%d", off), h.RefAt(r, uint32(off)))
			}
		case KindRefArray:
			n := h.ArrayLen(r)
			if uint64(n)+arrayHeaderWords > uint64(headerSize(hd)) {
				fail(r, "array length %d exceeds chunk size %d", n, headerSize(hd))
				continue
			}
			for i := uint32(0); i < n; i++ {
				checkRef(r, fmt.Sprintf("element %d", i), Ref(h.ArrayWord(r, i)))
			}
		case KindDataArray:
			if n := h.ArrayLen(r); uint64(n)+arrayHeaderWords > uint64(headerSize(hd)) {
				fail(r, "array length %d exceeds chunk size %d", n, headerSize(hd))
			}
		}
	}
	return errs
}

// verifyParse is Verify's pass 1: it parses the arena, adds object starts to
// starts, and checks the accounting and, when listsOK, free-list coverage. It
// returns false when the parse cannot continue.
func (h *Heap) verifyParse(starts map[Ref]bool, listsOK bool, fail func(Ref, string, ...any)) bool {
	var freeWalk, liveWalk uint64
	var liveObjs uint64
	addr := uint32(heapBase)
	end := h.end()
	prevFree := false
	for addr < end {
		hd := h.words[addr]
		size := headerSize(hd)
		if size == 0 {
			fail(Ref(addr), "zero-size header %#x", hd)
			return false
		}
		if size%2 != 0 {
			fail(Ref(addr), "odd chunk size %d", size)
		}
		if addr+size > end {
			fail(Ref(addr), "chunk of %d words overruns the arena", size)
			return false
		}
		if hd&FlagFree != 0 {
			if prevFree {
				fail(Ref(addr), "adjacent free chunks (coalescing failed)")
			}
			freeWalk += uint64(size)
			prevFree = true
		} else {
			if hd&FlagMark != 0 {
				fail(Ref(addr), "stale mark bit outside a collection")
			}
			starts[Ref(addr)] = true
			liveWalk += uint64(size)
			liveObjs++
			prevFree = false
		}
		addr += size
	}

	// Accounting must agree with the walk.
	if freeWalk != h.freeWords {
		fail(0, "free accounting: walk found %d words, counter says %d", freeWalk, h.freeWords)
	}
	if liveWalk != h.liveWords {
		fail(0, "live accounting: walk found %d words, counter says %d", liveWalk, h.liveWords)
	}
	if liveObjs != h.liveObjs {
		fail(0, "object accounting: walk found %d, counter says %d", liveObjs, h.liveObjs)
	}

	// Free lists must cover exactly the free chunks found by the walk.
	if !listsOK {
		return true
	}
	var freeList uint64
	h.EachFreeChunk(func(c FreeChunk) bool {
		if h.words[c.Ref]&FlagFree == 0 {
			fail(c.Ref, "free list entry without the free flag")
			return false
		}
		freeList += uint64(c.Words)
		return true
	})
	if freeList != freeWalk {
		fail(0, "free lists hold %d words, walk found %d", freeList, freeWalk)
	}
	return true
}
