package vmheap

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// cloneHeap deep-copies a heap so two sweep modes can run over bit-identical
// starting states.
func cloneHeap(h *Heap) *Heap {
	return &Heap{
		words:      append([]uint64(nil), h.words...),
		bins:       h.bins,
		largeBin:   h.largeBin,
		liveWords:  h.liveWords,
		freeWords:  h.freeWords,
		liveObjs:   h.liveObjs,
		allocCount: h.allocCount,
		allocWords: h.allocWords,
		segWords:   h.segWords,
		segBounds:  append([]Ref(nil), h.segBounds...),
		segScratch: append([]Ref(nil), h.segScratch...),
		lazySweep:  h.lazySweep,
	}
}

// buildMixedHeap fills a fresh heap with a pseudo-random object population
// (scalars and arrays of varied sizes) and returns it with the allocation
// order.
func buildMixedHeap(t *testing.T, capWords int, seed int64) (*Heap, []Ref) {
	t.Helper()
	h := New(capWords)
	rng := rand.New(rand.NewSource(seed))
	var refs []Ref
	for {
		var r Ref
		var err error
		switch rng.Intn(3) {
		case 0:
			r, err = h.Alloc(KindScalar, uint32(rng.Intn(50)), uint32(rng.Intn(12)))
		case 1:
			r, err = h.Alloc(KindRefArray, 1, uint32(rng.Intn(20)))
		default:
			r, err = h.Alloc(KindDataArray, 2, uint32(rng.Intn(30)))
		}
		if err != nil {
			break
		}
		refs = append(refs, r)
		if h.FreeWords() < h.CapacityWords()/4 {
			break
		}
	}
	if len(refs) < 100 {
		t.Fatalf("only %d allocations; heap too small for a meaningful sweep test", len(refs))
	}
	return h, refs
}

// parseChunks walks the arena and returns every chunk start.
func parseChunks(t *testing.T, h *Heap) []Ref {
	t.Helper()
	var starts []Ref
	addr := uint32(heapBase)
	end := uint32(len(h.words))
	for addr < end {
		size := headerSize(h.words[addr])
		if size == 0 || addr+size > end {
			t.Fatalf("corrupt header at %d: %#x", addr, h.words[addr])
		}
		starts = append(starts, Ref(addr))
		addr += size
	}
	return starts
}

// markEvery sets FlagMark on every objects[i] with i%n == phase.
func markEvery(h *Heap, objects []Ref, n, phase int) {
	for i, r := range objects {
		if i%n == phase {
			h.SetFlags(r, FlagMark)
		}
	}
}

// liveRefs returns the allocated (non-free) chunk starts of a settled heap.
func liveRefs(h *Heap) []Ref {
	var out []Ref
	h.Iterate(func(r Ref, _ uint64) { out = append(out, r) })
	return out
}

// hookRecorder returns SweepOptions hooks appending a readable trace of
// every OnFree/OnLive call to a shared log.
func hookRecorder(log *[]string) (func(Ref, uint64), func(Ref, uint64)) {
	onFree := func(r Ref, hd uint64) {
		*log = append(*log, fmt.Sprintf("free %d %#x", r, hd))
	}
	onLive := func(r Ref, hd uint64) {
		*log = append(*log, fmt.Sprintf("live %d %#x", r, hd))
	}
	return onFree, onLive
}

// compareHeaps asserts two heaps are byte-identical: arena words, free-list
// heads, and accounting.
func compareHeaps(t *testing.T, label string, a, b *Heap) {
	t.Helper()
	if !reflect.DeepEqual(a.words, b.words) {
		for i := range a.words {
			if a.words[i] != b.words[i] {
				t.Fatalf("%s: words diverge first at %d: %#x vs %#x", label, i, a.words[i], b.words[i])
			}
		}
	}
	if a.bins != b.bins || a.largeBin != b.largeBin {
		t.Errorf("%s: free-list heads diverge:\n  %v / %v\n  %v / %v", label, a.bins, a.largeBin, b.bins, b.largeBin)
	}
	if a.liveWords != b.liveWords || a.freeWords != b.freeWords || a.liveObjs != b.liveObjs {
		t.Errorf("%s: accounting diverges: live %d/%d free %d/%d objs %d/%d",
			label, a.liveWords, b.liveWords, a.freeWords, b.freeWords, a.liveObjs, b.liveObjs)
	}
}

// runSweepCycles drives n mark/sweep cycles over both heaps with identical
// mark patterns and compares the result after each sweep (completing b's
// pending sweep first when lazy). Returns the per-cycle stats of both.
func runSweepCycles(t *testing.T, label string, a, b *Heap, n int) {
	t.Helper()
	for cycle := 0; cycle < n; cycle++ {
		// Identical mark patterns need identical object sets: a and b are
		// byte-identical at this point, so walking a is enough.
		objs := liveRefs(a)
		b.CompleteSweep()
		markEvery(a, objs, 2+cycle, cycle%2)
		markEvery(b, objs, 2+cycle, cycle%2)

		var logA, logB []string
		freeA, liveA := hookRecorder(&logA)
		freeB, liveB := hookRecorder(&logB)
		stA := a.Sweep(SweepOptions{OnFree: freeA, OnLive: liveA})
		stB := b.Sweep(SweepOptions{OnFree: freeB, OnLive: liveB})
		b.CompleteSweep()

		if stA != stB {
			t.Fatalf("%s cycle %d: stats diverge: %+v vs %+v", label, cycle, stA, stB)
		}
		if !reflect.DeepEqual(logA, logB) {
			t.Fatalf("%s cycle %d: hook sequences diverge (%d vs %d calls)", label, cycle, len(logA), len(logB))
		}
		compareHeaps(t, fmt.Sprintf("%s cycle %d", label, cycle), a, b)
		if errs := a.CheckFreeLists(); len(errs) > 0 {
			t.Fatalf("%s cycle %d: eager free lists corrupt: %v", label, cycle, errs[0])
		}
		if errs := b.CheckFreeLists(); len(errs) > 0 {
			t.Fatalf("%s cycle %d: %s free lists corrupt: %v", label, cycle, label, errs[0])
		}
	}
}

func TestLazySweepCompletionByteIdentical(t *testing.T) {
	a, _ := buildMixedHeap(t, 1<<16, 7)
	b := cloneHeap(a)
	b.SetLazySweep(true)
	runSweepCycles(t, "lazy", a, b, 4)
	st := b.SweepModeStats()
	if st.LazySweeps != 4 {
		t.Errorf("LazySweeps = %d, want 4", st.LazySweeps)
	}
	if st.CompletionSegments == 0 {
		t.Error("no segments were swept by completion")
	}
}

func TestLazySweepImmatureMode(t *testing.T) {
	// Minor-collection shaped sweeps (Immature + promotion) must also be
	// equivalent: mature objects survive regardless of marks.
	a, refs := buildMixedHeap(t, 1<<16, 11)
	for i, r := range refs {
		if i%3 == 0 {
			a.SetFlags(r, FlagMature)
		}
	}
	b := cloneHeap(a)
	b.SetLazySweep(true)
	objs := liveRefs(a)
	markEvery(a, objs, 5, 0)
	markEvery(b, objs, 5, 0)
	opts := SweepOptions{Immature: true, SetFlags: FlagMature}
	stA := a.Sweep(opts)
	stB := b.Sweep(opts)
	b.CompleteSweep()
	if stA != stB {
		t.Fatalf("stats diverge: %+v vs %+v", stA, stB)
	}
	compareHeaps(t, "immature", a, b)
}

func TestLazySweepDemandAllocation(t *testing.T) {
	h, refs := buildMixedHeap(t, 1<<16, 3)
	h.SetLazySweep(true)
	markEvery(h, refs, 2, 0)
	st := h.Sweep(SweepOptions{})
	if !h.SweepPending() {
		t.Fatal("census did not leave a pending sweep")
	}
	if n := h.FreeChunkCount(); n != 0 {
		t.Fatalf("census installed %d chunks; lazy mode must defer them all", n)
	}
	if st.FreedObjects == 0 {
		t.Fatal("test heap had no garbage")
	}

	// The allocator must self-serve by sweeping ranges on demand.
	r, err := h.Alloc(KindScalar, 9, 4)
	if err != nil {
		t.Fatalf("alloc under pending sweep: %v", err)
	}
	if h.SweepModeStats().DemandSegments == 0 {
		t.Error("allocation did not demand-sweep any segment")
	}
	if !h.IsObject(r) {
		t.Error("fresh allocation not an object")
	}

	// Exhaust the heap: ErrHeapExhausted may only surface once every
	// segment has been reclaimed.
	for {
		if _, err := h.Alloc(KindScalar, 9, 6); err != nil {
			if err != ErrHeapExhausted {
				t.Fatalf("unexpected alloc error: %v", err)
			}
			break
		}
	}
	if h.SweepPending() {
		t.Error("heap reported exhausted with segments still unswept")
	}
	if errs := h.Verify(nil); len(errs) > 0 {
		t.Fatalf("heap corrupt after demand sweeping: %v", errs[0])
	}
}

func TestLazyIsObjectUsesCensusVerdict(t *testing.T) {
	h, refs := buildMixedHeap(t, 1<<16, 5)
	h.SetLazySweep(true)
	// Mark only the low half so the unswept tail holds plenty of garbage.
	for i, r := range refs {
		if i < len(refs)/2 {
			h.SetFlags(r, FlagMark)
		}
	}
	h.Sweep(SweepOptions{})
	frontier := h.segBounds[h.lazy.next]
	var checked int
	for i, r := range refs {
		if r < frontier {
			continue
		}
		live := i < len(refs)/2
		if got := h.IsObject(r); got != live {
			t.Fatalf("IsObject(%d) = %v during pending sweep, census verdict %v", r, got, live)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no refs beyond the frontier; census swept everything")
	}
	h.CompleteSweep()
	for i, r := range refs[len(refs)/2:] {
		_ = i
		if h.words[r]&FlagFree != 0 && h.IsObject(r) {
			t.Fatalf("IsObject(%d) true for reclaimed object after completion", r)
		}
	}
}

func TestSegmentStateMachine(t *testing.T) {
	h, refs := buildMixedHeap(t, 1<<16, 13)
	h.SetLazySweep(true)
	markEvery(h, refs, 2, 0)
	h.Sweep(SweepOptions{})

	swept, total := h.SegmentStates()
	if swept != 0 {
		t.Fatalf("census left %d/%d segments swept, want 0", swept, total)
	}
	if total < 2 {
		t.Fatalf("only %d segment(s); heap too small to exercise the state machine", total)
	}
	for i := 1; i <= total; i++ {
		if !h.sweepSegment(false) {
			t.Fatalf("sweepSegment returned false with %d/%d swept", i-1, total)
		}
		swept, _ = h.SegmentStates()
		if swept != i && h.SweepPending() {
			t.Fatalf("after %d range sweeps: SegmentStates says %d", i, swept)
		}
	}
	if h.SweepPending() {
		t.Error("still pending after sweeping every segment")
	}
	if h.sweepSegment(false) {
		t.Error("sweepSegment reported work with nothing pending")
	}
}

func TestSweepPanicsWithPendingLazySweep(t *testing.T) {
	h, refs := buildMixedHeap(t, 1<<16, 17)
	h.SetLazySweep(true)
	markEvery(h, refs, 2, 0)
	h.Sweep(SweepOptions{})
	defer func() {
		if recover() == nil {
			t.Fatal("Sweep with a pending lazy sweep did not panic")
		}
	}()
	h.Sweep(SweepOptions{})
}

func TestPendingPromotion(t *testing.T) {
	h, refs := buildMixedHeap(t, 1<<16, 19)
	h.SetLazySweep(true)
	markEvery(h, refs, 2, 0)
	h.Sweep(SweepOptions{SetFlags: FlagMature}) // major-collection shaped
	frontier := h.segBounds[h.lazy.next]
	var sawSurvivor, sawGarbage bool
	for i, r := range refs {
		if r < frontier {
			continue
		}
		if i%2 == 0 {
			if !h.PendingPromotion(r) {
				t.Fatalf("PendingPromotion(%d) false for an unswept survivor", r)
			}
			sawSurvivor = true
		} else {
			if h.PendingPromotion(r) {
				t.Fatalf("PendingPromotion(%d) true for census garbage", r)
			}
			sawGarbage = true
		}
	}
	if !sawSurvivor || !sawGarbage {
		t.Skip("frontier advanced past the interesting refs")
	}
	h.CompleteSweep()
	for i, r := range refs {
		if h.PendingPromotion(r) {
			t.Fatalf("PendingPromotion(%d) true after completion", r)
		}
		if i%2 == 0 && h.words[r]&FlagMature == 0 {
			t.Fatalf("survivor %d not promoted by the deferred sweep", r)
		}
	}
}

func TestBoundsArePartitionHeaders(t *testing.T) {
	for _, mode := range []struct {
		name string
		lazy bool
	}{
		{"eager", false},
		{"lazy", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			h, _ := buildMixedHeap(t, 1<<16, 23)
			h.SetLazySweep(mode.lazy)
			for cycle := 0; cycle < 3; cycle++ {
				objs := liveRefs(h)
				markEvery(h, objs, 2, 0)
				h.Sweep(SweepOptions{})
				h.CompleteSweep()

				starts := make(map[Ref]bool)
				for _, s := range parseChunks(t, h) {
					starts[s] = true
				}
				end := Ref(len(h.words))
				prev := Ref(0)
				for i, b := range h.segBounds {
					if b < prev {
						t.Fatalf("cycle %d: bounds not monotonic at %d: %d after %d", cycle, i, b, prev)
					}
					prev = b
					if b != end && !starts[b] {
						t.Fatalf("cycle %d: bounds[%d] = %d is not a chunk header", cycle, i, b)
					}
				}
				if h.segBounds[0] != heapBase {
					t.Fatalf("cycle %d: bounds[0] = %d, want heapBase", cycle, h.segBounds[0])
				}
				if h.segBounds[len(h.segBounds)-1] != end {
					t.Fatalf("cycle %d: final bound = %d, want arena end", cycle, h.segBounds[len(h.segBounds)-1])
				}
			}
		})
	}
}

func TestCheckFreeListsDetectsCorruption(t *testing.T) {
	h, refs := buildMixedHeap(t, 1<<14, 29)
	markEvery(h, refs, 2, 0)
	h.Sweep(SweepOptions{})
	if errs := h.CheckFreeLists(); len(errs) > 0 {
		t.Fatalf("healthy heap reported %v", errs[0])
	}

	// Find a listed chunk and strip its free flag.
	var victim Ref
	h.EachFreeChunk(func(c FreeChunk) bool { victim = c.Ref; return false })
	if victim == Nil {
		t.Fatal("no free chunks to corrupt")
	}
	saved := h.words[victim]
	h.words[victim] &^= FlagFree
	if errs := h.CheckFreeLists(); len(errs) == 0 {
		t.Error("missing FlagFree not detected")
	}
	h.words[victim] = saved

	// File a chunk in the wrong bin: push a minimum chunk onto the large
	// list by hand.
	h.words[victim+freeNextSlot] = uint64(h.largeBin)
	h.words[victim] = makeHeader(KindScalar, 0, minChunkWords) | FlagFree
	savedLarge := h.largeBin
	h.largeBin = victim
	if errs := h.CheckFreeLists(); len(errs) == 0 {
		t.Error("wrong-bin chunk not detected")
	}
	h.largeBin = savedLarge
}

func TestFreeChunksMatchesIterator(t *testing.T) {
	h, refs := buildMixedHeap(t, 1<<14, 31)
	markEvery(h, refs, 2, 0)
	h.Sweep(SweepOptions{})
	var viaIter []FreeChunk
	h.EachFreeChunk(func(c FreeChunk) bool { viaIter = append(viaIter, c); return true })
	if got := h.FreeChunks(); !reflect.DeepEqual(got, viaIter) {
		t.Errorf("FreeChunks and EachFreeChunk disagree: %d vs %d chunks", len(got), len(viaIter))
	}
	if got, want := h.FreeChunkCount(), len(viaIter); got != want {
		t.Errorf("FreeChunkCount = %d, want %d", got, want)
	}
}

// TestLazySweepWalklessArm drives the census-skipping lazy arm directly: the
// caller supplies exact marked totals (as the serial collectors do from their
// trace statistics) and the sweep must report the same statistics as the
// eager walk — FreeChunks excepted, which the walkless arm cannot know — and
// leave a byte-identical heap once the deferred pass completes.
func TestLazySweepWalklessArm(t *testing.T) {
	a, _ := buildMixedHeap(t, 1<<16, 99)
	b := cloneHeap(a)
	b.SetLazySweep(true)

	for cycle := 0; cycle < 4; cycle++ {
		objs := liveRefs(a)
		b.CompleteSweep()
		markEvery(a, objs, 2+cycle, cycle%2)
		markEvery(b, objs, 2+cycle, cycle%2)

		var marked, markedWords uint64
		for _, r := range objs {
			if a.Flags(r, FlagMark) != 0 {
				marked++
				markedWords += uint64(a.SizeWords(r))
			}
		}

		var logA, logB []string
		freeA, liveA := hookRecorder(&logA)
		freeB, liveB := hookRecorder(&logB)
		stA := a.Sweep(SweepOptions{OnFree: freeA, OnLive: liveA})
		stB := b.Sweep(SweepOptions{
			OnFree: freeB, OnLive: liveB,
			MarkedKnown: true, MarkedObjects: marked, MarkedWords: markedWords,
		})
		if stB.FreeChunks != 0 {
			t.Errorf("cycle %d: walkless arm reported FreeChunks = %d, want 0 (unknowable)", cycle, stB.FreeChunks)
		}
		stB.FreeChunks = stA.FreeChunks
		if stA != stB {
			t.Fatalf("cycle %d: stats diverge: %+v vs %+v", cycle, stA, stB)
		}
		b.CompleteSweep()
		if !reflect.DeepEqual(logA, logB) {
			t.Fatalf("cycle %d: hook sequences diverge (%d vs %d calls)", cycle, len(logA), len(logB))
		}
		compareHeaps(t, fmt.Sprintf("walkless cycle %d", cycle), a, b)
		if errs := b.CheckFreeLists(); len(errs) > 0 {
			t.Fatalf("cycle %d: free lists corrupt: %v", cycle, errs[0])
		}
	}
	if got := b.SweepModeStats().LazySweeps; got != 4 {
		t.Errorf("LazySweeps = %d, want 4", got)
	}
}

// TestWalklessArmRejectsBogusTotals checks the accounting cross-check: marked
// totals exceeding the allocator's live accounting are heap corruption, not a
// statistic to propagate.
func TestWalklessArmRejectsBogusTotals(t *testing.T) {
	h, _ := buildMixedHeap(t, 1<<14, 3)
	h.SetLazySweep(true)
	defer func() {
		if recover() == nil {
			t.Error("no panic on marked totals exceeding heap accounting")
		}
	}()
	h.Sweep(SweepOptions{MarkedKnown: true, MarkedObjects: 1 << 62, MarkedWords: 1})
}

// eagerSweepDigest runs four eager mark/sweep cycles (the last one
// minor-collection shaped) over the buildMixedHeap fixture and hashes, after
// each sweep, everything the sweep produces: the hook call sequence, the
// statistics, the arena image, the free lists and the parse-range table.
func eagerSweepDigest(t *testing.T, seed int64) uint64 {
	t.Helper()
	h, _ := buildMixedHeap(t, 1<<16, seed)
	d := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			d.Write(b[:])
		}
	}
	for cycle := 0; cycle < 4; cycle++ {
		objs := liveRefs(h)
		markEvery(h, objs, 2+cycle, cycle%2)
		opts := SweepOptions{
			OnFree: func(r Ref, hd uint64) { put(0, uint64(r), hd) },
			OnLive: func(r Ref, hd uint64) { put(1, uint64(r), hd) },
		}
		if cycle == 1 {
			opts.SetFlags = FlagMature
		}
		if cycle == 3 {
			opts.Immature, opts.SetFlags = true, FlagMature
		}
		st := h.Sweep(opts)
		put(st.LiveObjects, st.LiveWords, st.FreedObjects, st.FreedWords, st.FreeChunks)
		put(h.words...)
		for _, b := range h.bins {
			put(uint64(b))
		}
		put(uint64(h.largeBin), h.binOcc, h.liveObjs, h.liveWords, h.freeWords)
		for _, b := range h.segBounds {
			put(uint64(b))
		}
	}
	return d.Sum64()
}

// TestEagerSweepGolden pins the eager sweep to the heap image, free lists,
// parse-range table, statistics and hook order its own loop (sweepSerial)
// produced before it became the lazy walk over the whole heap: the digests
// were taken from this function run at commit a3b6253.
func TestEagerSweepGolden(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want uint64
	}{
		{7, 0x8782689251ab29af},
		{42, 0xb69946dfdfda3a0c},
		{99, 0xef7488c5bab2ebc6},
	} {
		if got := eagerSweepDigest(t, tc.seed); got != tc.want {
			t.Errorf("seed %d: digest %#x, want %#x", tc.seed, got, tc.want)
		}
	}
}

// TestSweepWalkAllocatesNothing holds the shared walk to zero allocations,
// with both hooks set, as an eager sweep and as a full lazy cycle (arm, every
// range, completion): a closure or slice escaping from it fails here rather
// than in a benchmark.
func TestSweepWalkAllocatesNothing(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		h, _ := buildMixedHeap(t, 1<<16, 7)
		h.SetLazySweep(lazy)
		var frees, lives int
		opts := SweepOptions{
			OnFree: func(Ref, uint64) { frees++ },
			OnLive: func(Ref, uint64) { lives++ },
		}
		cycle := func() {
			// Top the heap up (the allocator itself allocates nothing) and
			// leave alternating garbage.
			for {
				if _, err := h.Alloc(KindScalar, 1, 6); err != nil {
					break
				}
			}
			i := 0
			h.Iterate(func(r Ref, _ uint64) {
				if i++; i%2 == 0 {
					h.SetFlags(r, FlagMark)
				}
			})
			h.Sweep(opts)
			for h.sweepSegment(false) {
			}
		}
		if n := testing.AllocsPerRun(10, cycle); n != 0 {
			t.Errorf("lazy=%v: %v allocations per sweep cycle, want 0", lazy, n)
		}
		if frees == 0 || lives == 0 {
			t.Errorf("lazy=%v: hooks ran %d/%d times; the cycle swept nothing", lazy, frees, lives)
		}
		if lazy && h.SweepModeStats().CompletionSegments == 0 {
			t.Error("the lazy cycle swept no range")
		}
	}
}

// TestLazyTotalsCrossCheck: under DebugChecks a completed lazy sweep holds
// the totals its walk counted to the ones the collection-time half reported.
// Honest totals pass (census and walkless arm); marked totals that undercount
// by one object — inside the heap's accounting, so the arm accepts them —
// panic at completion.
func TestLazyTotalsCrossCheck(t *testing.T) {
	DebugChecks = true
	defer func() { DebugChecks = false }()

	h, refs := buildMixedHeap(t, 1<<16, 5)
	h.SetLazySweep(true)
	markEvery(h, refs, 2, 0)
	h.Sweep(SweepOptions{})
	h.CompleteSweep()

	objs := liveRefs(h)
	markEvery(h, objs, 3, 0)
	var marked, markedWords uint64
	for _, r := range objs {
		if h.Flags(r, FlagMark) != 0 {
			marked++
			markedWords += uint64(h.SizeWords(r))
		}
	}
	h.Sweep(SweepOptions{MarkedKnown: true, MarkedObjects: marked, MarkedWords: markedWords})
	h.CompleteSweep()

	objs = liveRefs(h)
	markEvery(h, objs, 2, 0)
	h.Sweep(SweepOptions{MarkedKnown: true, MarkedObjects: 1, MarkedWords: 2})
	defer func() {
		if recover() == nil {
			t.Error("a lazy sweep that reclaimed other totals than it reported completed silently")
		}
	}()
	h.CompleteSweep()
}
