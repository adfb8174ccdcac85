package vmheap

import "fmt"

// DebugChecks enables free-list integrity verification after every sweep
// pass. Off by default — the check walks every free list, which would
// distort pause measurements. Tests flip it through the runtime's
// debug toggle (core.SetDebugChecks); it is a plain bool because the heap
// is externally serialized.
var DebugChecks bool

// CheckFreeLists walks every free-list bin and validates the allocator's
// structural invariants for each chunk:
//
//   - the chunk Ref is two-word aligned and inside the arena;
//   - the header carries FlagFree;
//   - the size is even, at least minChunkWords, and stays in the arena;
//   - the chunk is filed in the bin binFor assigns for its size (exact
//     bins hold exactly their size class; the large list holds only
//     sizes beyond the exact bins).
//
// It returns all violations found (nil for healthy lists).
func (h *Heap) CheckFreeLists() []error {
	var errs []error
	check := func(bin int, head Ref) {
		binName := fmt.Sprintf("bin %d", bin)
		if bin == numExactBins {
			binName = "large bin"
		}
		steps := 0
		for r := head; r != Nil; r = Ref(h.words[uint32(r)+freeNextSlot]) {
			if steps++; steps > len(h.words) {
				errs = append(errs, fmt.Errorf("vmheap: %s: free list cycle", binName))
				return
			}
			if r%2 != 0 || uint32(r) < heapBase || uint32(r) >= h.end() {
				errs = append(errs, fmt.Errorf("vmheap: %s: unaligned or out-of-arena chunk %d", binName, r))
				return
			}
			hd := h.words[r]
			if hd&FlagFree == 0 {
				errs = append(errs, fmt.Errorf("vmheap: %s: chunk %d lacks FlagFree (header %#x)", binName, r, hd))
				return
			}
			size := headerSize(hd)
			if size%2 != 0 || size < minChunkWords {
				errs = append(errs, fmt.Errorf("vmheap: %s: chunk %d has bad size %d", binName, r, size))
				return
			}
			if uint32(r)+size > h.end() {
				errs = append(errs, fmt.Errorf("vmheap: %s: chunk %d of %d words overruns the arena", binName, r, size))
				return
			}
			got := binFor(size)
			if got < 0 {
				got = numExactBins
			}
			if got != bin {
				errs = append(errs, fmt.Errorf("vmheap: %s: chunk %d of %d words belongs in bin %d", binName, r, size, got))
			}
		}
	}
	for i, head := range h.bins {
		check(i, head)
		if got, want := h.binOcc&(1<<uint(i)) != 0, head != Nil; got != want {
			errs = append(errs, fmt.Errorf("vmheap: bin %d: occupancy bit %v but list non-empty is %v", i, got, want))
		}
	}
	check(numExactBins, h.largeBin)
	return errs
}

// debugCheck panics on the first free-list invariant violation when
// DebugChecks is enabled; a no-op (one branch) otherwise. Sweep passes call
// it after rebuilding the lists.
func (h *Heap) debugCheck() {
	if !DebugChecks {
		return
	}
	if errs := h.CheckFreeLists(); len(errs) > 0 {
		panic(errs[0])
	}
}
