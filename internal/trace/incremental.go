package trace

import "repro/internal/vmheap"

// Incremental marking: the Infrastructure trace split into bounded slices
// that interleave with mutator work, under a snapshot-at-beginning (SAB)
// discipline. The soundness and exactness argument lives in DESIGN.md §7;
// the shape is:
//
//   - At cycle start the root set is scanned atomically (StartIncremental),
//     after any ownership pre-phase. Everything reachable at that instant —
//     the snapshot — will be marked; the assertion checks must observe
//     exactly the snapshot heap.
//
//   - Marking proceeds by popping bounded batches from the ordinary
//     path-tracking worklist (IncrementalSlice). Each scanned object is
//     tagged FlagScanned before its slots are read.
//
//   - The first mutator write to a not-yet-scanned object scans that
//     object's slots immediately (SnapshotObject), while they still hold
//     their snapshot values, and tags it FlagScanned so later slices skip
//     it. Object granularity (rather than logging the single overwritten
//     slot) means every reachable object's slots are processed exactly once
//     with snapshot values — by a slice or by the barrier — so every
//     per-encounter check fires exactly as often as in a stop-the-world
//     trace of the snapshot.
//
//   - Objects allocated during the cycle are marked and tagged scanned by
//     the collector at allocation ("allocate black"): no snapshot reference
//     can lead to them (nothing is swept mid-cycle, so no address is
//     recycled), and their fresh slots hold no snapshot values to process.
//
// The low-bit path invariant of the worklist survives slicing, but entries
// pushed by barrier scans join the stack outside DFS order, so paths
// reported from slices describe the snapshot graph rather than the exact
// traversal that would have found the object stop-the-world.

// StartIncremental begins an incremental mark: it enables FlagScanned
// maintenance for the cycle and scans the root set, seeding the worklist
// without draining it. Any ownership pre-phase must run between
// BeginIncremental and StartIncremental so its scans are tagged too.
func (t *Tracer) StartIncremental(roots [][]vmheap.Ref) {
	t.stack = t.stack[:0]
	t.scanRoots(roots)
}

// BeginIncremental switches the tracer into incremental mode: subsequent
// scans (including an ownership pre-phase) tag the objects they process
// with FlagScanned.
func (t *Tracer) BeginIncremental() { t.incScan = true }

// EndIncremental leaves incremental mode (the cycle completed).
func (t *Tracer) EndIncremental() { t.incScan = false }

// IncrementalSlice pops and scans up to budget objects, returning true when
// the worklist is empty (marking complete). Close markers and objects the
// write barrier already scanned are discarded without consuming budget.
func (t *Tracer) IncrementalSlice(budget int) (done bool) {
	h := t.heap
	for budget > 0 {
		var r vmheap.Ref
		for {
			if len(t.stack) == 0 {
				return true
			}
			e := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			if e&1 != 0 {
				continue
			}
			r = vmheap.Ref(e)
			if h.Flags(r, vmheap.FlagScanned) == 0 {
				break
			}
		}
		h.SetFlags(r, vmheap.FlagScanned)
		t.stack = append(t.stack, uint32(r)|1)
		t.scanObject(r)
		budget--
	}
	return len(t.stack) == 0
}

// SnapshotObject is the write-barrier scan: called before the first mutator
// store into obj during an incremental cycle, it processes obj's reference
// slots — which still hold their snapshot values — through the full check
// semantics and tags obj scanned. It reports whether a scan ran (false when
// obj was already processed) and how many reference slots it examined.
func (t *Tracer) SnapshotObject(obj vmheap.Ref) (refs uint64, scanned bool) {
	if obj == vmheap.Nil || t.heap.Flags(obj, vmheap.FlagScanned) != 0 {
		return 0, false
	}
	t.heap.SetFlags(obj, vmheap.FlagScanned)
	before := t.stats.RefsScanned
	t.barrierSrc = obj
	t.scanObject(obj)
	t.barrierSrc = vmheap.Nil
	return t.stats.RefsScanned - before, true
}
