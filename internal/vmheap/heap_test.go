package vmheap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewHeapAccounting(t *testing.T) {
	h := New(1024)
	if got, want := h.CapacityWords(), uint64(1024-heapBase); got != want {
		t.Errorf("CapacityWords = %d, want %d", got, want)
	}
	if h.LiveWords() != 0 {
		t.Errorf("LiveWords = %d, want 0", h.LiveWords())
	}
	if h.FreeWords() != h.CapacityWords() {
		t.Errorf("FreeWords = %d, want %d", h.FreeWords(), h.CapacityWords())
	}
}

func TestNewHeapPanicsWhenTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(8) did not panic")
		}
	}()
	New(8)
}

func TestAllocScalar(t *testing.T) {
	h := New(1024)
	r, err := h.Alloc(KindScalar, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r == Nil {
		t.Fatal("Alloc returned Nil without error")
	}
	if r%2 != 0 {
		t.Errorf("ref %d not two-word aligned", r)
	}
	if got := h.ClassID(r); got != 7 {
		t.Errorf("ClassID = %d, want 7", got)
	}
	if got := h.KindOf(r); got != KindScalar {
		t.Errorf("KindOf = %d, want KindScalar", got)
	}
	// 1 header + 3 fields = 4 words, already even.
	if got := h.SizeWords(r); got != 4 {
		t.Errorf("SizeWords = %d, want 4", got)
	}
	for i := uint32(1); i <= 3; i++ {
		if h.Word(r, i) != 0 {
			t.Errorf("field %d not zeroed: %#x", i, h.Word(r, i))
		}
	}
}

func TestAllocRounding(t *testing.T) {
	h := New(1024)
	// 1 header + 2 fields = 3 words, rounds to 4.
	r, err := h.Alloc(KindScalar, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.SizeWords(r); got != 4 {
		t.Errorf("SizeWords = %d, want 4", got)
	}
	// Zero-field object still occupies the minimum chunk.
	r2, err := h.Alloc(KindScalar, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.SizeWords(r2); got != minChunkWords {
		t.Errorf("SizeWords = %d, want %d", got, minChunkWords)
	}
}

func TestAllocArrays(t *testing.T) {
	h := New(1024)
	ra, err := h.Alloc(KindRefArray, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.ArrayLen(ra); got != 5 {
		t.Errorf("ArrayLen = %d, want 5", got)
	}
	if got := h.KindOf(ra); got != KindRefArray {
		t.Errorf("KindOf = %d, want KindRefArray", got)
	}
	h.SetArrayWord(ra, 4, 42)
	if got := h.ArrayWord(ra, 4); got != 42 {
		t.Errorf("ArrayWord = %d, want 42", got)
	}

	da, err := h.Alloc(KindDataArray, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.ArrayLen(da); got != 0 {
		t.Errorf("empty array len = %d, want 0", got)
	}
}

// TestCopyArrayWords: the range copy moves element words only — headers,
// length words and the neighbouring object stay put — and is a memmove when
// both ranges lie in one array.
func TestCopyArrayWords(t *testing.T) {
	h := New(1024)
	a, _ := h.Alloc(KindRefArray, 2, 6)
	b, _ := h.Alloc(KindRefArray, 2, 6)
	fill := func() {
		for i := uint32(0); i < 6; i++ {
			h.SetArrayWord(a, i, uint64(10+i))
			h.SetArrayWord(b, i, uint64(20+i))
		}
	}
	elems := func(r Ref) (out [6]uint64) {
		for i := range out {
			out[i] = h.ArrayWord(r, uint32(i))
		}
		return out
	}
	headers := [4]uint64{h.Header(a), uint64(h.ArrayLen(a)), h.Header(b), uint64(h.ArrayLen(b))}
	for _, c := range []struct {
		dst          Ref
		di           uint32
		src          Ref
		si, n        uint32
		wantA, wantB [6]uint64
	}{
		{dst: b, di: 0, src: a, si: 0, n: 6, wantA: [6]uint64{10, 11, 12, 13, 14, 15}, wantB: [6]uint64{10, 11, 12, 13, 14, 15}},
		{dst: b, di: 4, src: a, si: 1, n: 2, wantA: [6]uint64{10, 11, 12, 13, 14, 15}, wantB: [6]uint64{20, 21, 22, 23, 11, 12}},
		{dst: a, di: 0, src: a, si: 1, n: 5, wantA: [6]uint64{11, 12, 13, 14, 15, 15}, wantB: [6]uint64{20, 21, 22, 23, 24, 25}},
		{dst: a, di: 1, src: a, si: 0, n: 5, wantA: [6]uint64{10, 10, 11, 12, 13, 14}, wantB: [6]uint64{20, 21, 22, 23, 24, 25}},
		{dst: a, di: 6, src: b, si: 6, n: 0, wantA: [6]uint64{10, 11, 12, 13, 14, 15}, wantB: [6]uint64{20, 21, 22, 23, 24, 25}},
	} {
		fill()
		h.CopyArrayWords(c.dst, c.di, c.src, c.si, c.n)
		if gotA, gotB := elems(a), elems(b); gotA != c.wantA || gotB != c.wantB {
			t.Errorf("copy %+v: a = %v, b = %v", c, gotA, gotB)
		}
		if got := [4]uint64{h.Header(a), uint64(h.ArrayLen(a)), h.Header(b), uint64(h.ArrayLen(b))}; got != headers {
			t.Errorf("copy %+v: a header or length word changed", c)
		}
	}
}

func TestAllocExhaustion(t *testing.T) {
	h := New(MinHeapWords)
	var refs []Ref
	for {
		r, err := h.Alloc(KindScalar, 1, 7)
		if err == ErrHeapExhausted {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	if len(refs) == 0 {
		t.Fatal("no allocations succeeded")
	}
	// Everything allocated must be accounted for.
	if h.LiveWords()+h.FreeWords() != h.CapacityWords() {
		t.Errorf("accounting broken: live %d + free %d != cap %d",
			h.LiveWords(), h.FreeWords(), h.CapacityWords())
	}
}

func TestFieldReadWrite(t *testing.T) {
	h := New(1024)
	r, _ := h.Alloc(KindScalar, 1, 4)
	h.SetWord(r, 1, 0xdeadbeef)
	h.SetRefAt(r, 2, Ref(100))
	if got := h.Word(r, 1); got != 0xdeadbeef {
		t.Errorf("Word = %#x", got)
	}
	if got := h.RefAt(r, 2); got != Ref(100) {
		t.Errorf("RefAt = %d", got)
	}
}

func TestFlags(t *testing.T) {
	h := New(1024)
	r, _ := h.Alloc(KindScalar, 1, 1)
	if h.Flags(r, FlagDead) != 0 {
		t.Error("fresh object has dead bit set")
	}
	h.SetFlags(r, FlagDead|FlagUnshared)
	if h.Flags(r, FlagDead) == 0 || h.Flags(r, FlagUnshared) == 0 {
		t.Error("SetFlags did not set bits")
	}
	// Flags must not disturb the class or size.
	if h.ClassID(r) != 1 || h.SizeWords(r) != minChunkWords {
		t.Error("flag ops corrupted header")
	}
	h.ClearFlags(r, FlagDead)
	if h.Flags(r, FlagDead) != 0 {
		t.Error("ClearFlags did not clear")
	}
	if h.Flags(r, FlagUnshared) == 0 {
		t.Error("ClearFlags cleared the wrong bit")
	}
}

// markAll marks every object so a sweep frees nothing.
func markAll(h *Heap) {
	h.Iterate(func(r Ref, _ uint64) { h.SetFlags(r, FlagMark) })
}

func TestSweepReclaimsUnmarked(t *testing.T) {
	h := New(2048)
	var live, dead []Ref
	for i := 0; i < 20; i++ {
		r, err := h.Alloc(KindScalar, 1, uint32(i%5)+1)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			live = append(live, r)
		} else {
			dead = append(dead, r)
		}
	}
	for _, r := range live {
		h.SetFlags(r, FlagMark)
	}
	var freed []Ref
	st := h.Sweep(SweepOptions{OnFree: func(r Ref, _ uint64) { freed = append(freed, r) }})
	if int(st.FreedObjects) != len(dead) {
		t.Errorf("FreedObjects = %d, want %d", st.FreedObjects, len(dead))
	}
	if int(st.LiveObjects) != len(live) {
		t.Errorf("LiveObjects = %d, want %d", st.LiveObjects, len(live))
	}
	if len(freed) != len(dead) {
		t.Errorf("OnFree called %d times, want %d", len(freed), len(dead))
	}
	for _, r := range live {
		if h.Flags(r, FlagMark) != 0 {
			t.Errorf("mark bit not cleared on survivor %d", r)
		}
	}
}

func TestSweepCoalesces(t *testing.T) {
	h := New(4096)
	var refs []Ref
	for i := 0; i < 100; i++ {
		r, err := h.Alloc(KindScalar, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	// Keep every tenth object: the 9 dead neighbours between two
	// survivors must coalesce into single chunks.
	for i, r := range refs {
		if i%10 == 0 {
			h.SetFlags(r, FlagMark)
		}
	}
	st := h.Sweep(SweepOptions{})
	// 10 survivors split the heap into at most 11 free regions.
	if st.FreeChunks > 11 {
		t.Errorf("FreeChunks = %d, want <= 11 (coalescing failed)", st.FreeChunks)
	}
	assertNoAdjacentFreeChunks(t, h)
}

// assertNoAdjacentFreeChunks walks the heap verifying maximal coalescing.
func assertNoAdjacentFreeChunks(t *testing.T, h *Heap) {
	t.Helper()
	addr := uint32(heapBase)
	end := uint32(len(h.words))
	prevFree := false
	for addr < end {
		hd := h.words[addr]
		size := headerSize(hd)
		if size == 0 {
			t.Fatalf("corrupt header at %d", addr)
		}
		isFree := hd&FlagFree != 0
		if isFree && prevFree {
			t.Fatalf("adjacent free chunks at %d", addr)
		}
		prevFree = isFree
		addr += size
	}
}

func TestSweepEmptyHeapSingleChunk(t *testing.T) {
	h := New(2048)
	for i := 0; i < 50; i++ {
		if _, err := h.Alloc(KindScalar, 1, uint32(i%7)+1); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Sweep(SweepOptions{}) // nothing marked: everything dies
	if st.LiveObjects != 0 {
		t.Errorf("LiveObjects = %d, want 0", st.LiveObjects)
	}
	if st.FreeChunks != 1 {
		t.Errorf("FreeChunks = %d, want 1 (full coalesce)", st.FreeChunks)
	}
	if h.FreeWords() != h.CapacityWords() {
		t.Errorf("FreeWords = %d, want %d", h.FreeWords(), h.CapacityWords())
	}
	// The heap must be fully usable again.
	if _, err := h.Alloc(KindScalar, 1, 100); err != nil {
		t.Errorf("large alloc after full sweep failed: %v", err)
	}
}

func TestSweepClearFlags(t *testing.T) {
	h := New(1024)
	r, _ := h.Alloc(KindScalar, 1, 1)
	h.SetFlags(r, FlagMark|FlagOwned|FlagUnshared)
	h.Sweep(SweepOptions{ClearFlags: FlagOwned})
	if h.Flags(r, FlagOwned|FlagMark) != 0 {
		t.Error("FlagOwned or FlagMark survived sweep with ClearFlags")
	}
	if h.Flags(r, FlagUnshared) == 0 {
		t.Error("sweep cleared a flag outside ClearFlags")
	}
}

func TestAllocReusesFreedSpace(t *testing.T) {
	h := New(MinHeapWords + 64)
	// Fill, free all, and fill again the same number of times.
	count := 0
	for {
		if _, err := h.Alloc(KindScalar, 1, 5); err != nil {
			break
		}
		count++
	}
	h.Sweep(SweepOptions{})
	count2 := 0
	for {
		if _, err := h.Alloc(KindScalar, 1, 5); err != nil {
			break
		}
		count2++
	}
	if count2 != count {
		t.Errorf("second fill allocated %d objects, first %d", count2, count)
	}
}

func TestIterateVisitsAllObjects(t *testing.T) {
	h := New(2048)
	want := map[Ref]bool{}
	for i := 0; i < 30; i++ {
		r, err := h.Alloc(KindScalar, uint32(i), 2)
		if err != nil {
			t.Fatal(err)
		}
		want[r] = true
	}
	got := map[Ref]bool{}
	h.Iterate(func(r Ref, _ uint64) { got[r] = true })
	if len(got) != len(want) {
		t.Fatalf("Iterate visited %d objects, want %d", len(got), len(want))
	}
	for r := range want {
		if !got[r] {
			t.Errorf("Iterate missed %d", r)
		}
	}
}

func TestHeaderEncoding(t *testing.T) {
	cases := []struct {
		kind  Kind
		class uint32
		size  uint32
	}{
		{KindScalar, 0, 2},
		{KindRefArray, 1, 100},
		{KindDataArray, MaxClassID, MaxObjectWords},
		{KindScalar, 12345, 2},
	}
	for _, c := range cases {
		hd := makeHeader(c.kind, c.class, c.size)
		if headerKind(hd) != c.kind {
			t.Errorf("kind roundtrip failed for %+v", c)
		}
		if headerClass(hd) != c.class {
			t.Errorf("class roundtrip failed for %+v", c)
		}
		if headerSize(hd) != c.size {
			t.Errorf("size roundtrip failed for %+v", c)
		}
		// Flags must not collide with any field.
		hd |= FlagMark | FlagDead | FlagUnshared | FlagOwned | FlagOwnee | FlagOwner
		if headerKind(hd) != c.kind || headerClass(hd) != c.class || headerSize(hd) != c.size {
			t.Errorf("flags corrupt header fields for %+v", c)
		}
	}
}

// Property: after any sequence of allocations and full-mark sweeps,
// live words + free words always equals capacity, and a heap walk parses
// cleanly with no adjacent free chunks.
func TestPropertyAccountingCloses(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New(4096)
		var refs []Ref
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // allocate a random small object
				r, err := h.Alloc(KindScalar, uint32(op), uint32(rng.Intn(12))+1)
				if err == nil {
					refs = append(refs, r)
				}
			case 2: // sweep keeping a random subset
				for _, r := range refs {
					if rng.Intn(2) == 0 {
						h.SetFlags(r, FlagMark)
					}
				}
				h.Sweep(SweepOptions{})
				// Rebuild refs from a walk: survivors only.
				refs = refs[:0]
				h.Iterate(func(r Ref, _ uint64) { refs = append(refs, r) })
			case 3: // allocate an array
				r, err := h.Alloc(KindRefArray, 1, uint32(rng.Intn(30)))
				if err == nil {
					refs = append(refs, r)
				}
			}
			if h.LiveWords()+h.FreeWords() != h.CapacityWords() {
				return false
			}
		}
		// Final structural check.
		markAll(h)
		h.Sweep(SweepOptions{})
		return h.LiveWords()+h.FreeWords() == h.CapacityWords()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: object contents survive an interleaved alloc/sweep workload.
func TestPropertyContentsSurviveSweep(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New(8192)
		type obj struct {
			r   Ref
			val uint64
		}
		var objs []obj
		for round := 0; round < 10; round++ {
			for i := 0; i < 20; i++ {
				r, err := h.Alloc(KindScalar, 1, 2)
				if err != nil {
					break
				}
				v := rng.Uint64()
				h.SetWord(r, 1, v)
				objs = append(objs, obj{r, v})
			}
			// Keep a random half.
			var keep []obj
			for _, o := range objs {
				if rng.Intn(2) == 0 {
					h.SetFlags(o.r, FlagMark)
					keep = append(keep, o)
				}
			}
			h.Sweep(SweepOptions{})
			for _, o := range keep {
				if h.Word(o.r, 1) != o.val {
					return false
				}
			}
			objs = keep
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestIsObject(t *testing.T) {
	h := New(1024)
	if h.IsObject(Nil) {
		t.Error("IsObject(Nil) = true")
	}
	r, _ := h.Alloc(KindScalar, 1, 1)
	if !h.IsObject(r) {
		t.Error("IsObject(live) = false")
	}
	h.Sweep(SweepOptions{}) // r dies
	if h.IsObject(r) {
		t.Error("IsObject(swept) = true")
	}
}

func TestClearMarks(t *testing.T) {
	h := New(1024)
	r1, _ := h.Alloc(KindScalar, 1, 1)
	r2, _ := h.Alloc(KindScalar, 1, 1)
	h.SetFlags(r1, FlagMark|FlagOwned)
	h.SetFlags(r2, FlagMark)
	h.ClearMarks(FlagOwned)
	if h.Flags(r1, FlagMark|FlagOwned) != 0 || h.Flags(r2, FlagMark) != 0 {
		t.Error("ClearMarks left bits set")
	}
}

func BenchmarkAllocSmall(b *testing.B) {
	h := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Alloc(KindScalar, 1, 3); err != nil {
			markAll(h)
			// Free everything and continue.
			h.Iterate(func(r Ref, _ uint64) { h.ClearFlags(r, FlagMark) })
			h.Sweep(SweepOptions{})
		}
	}
}

func TestAllocLargeObject(t *testing.T) {
	h := New(8192)
	// Well beyond the exact bins: served by the large list.
	r, err := h.Alloc(KindDataArray, 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	_ = r
	if h.LiveWords() < 4000 {
		t.Errorf("LiveWords = %d", h.LiveWords())
	}
	// A second large allocation that no longer fits must fail cleanly.
	if _, err := h.Alloc(KindDataArray, 1, 6000); err != ErrHeapExhausted {
		t.Errorf("expected exhaustion, got %v", err)
	}
	// After freeing, the large chunk is reusable (sweep coalesces).
	h.Sweep(SweepOptions{})
	if _, err := h.Alloc(KindDataArray, 1, 7000); err != nil {
		t.Errorf("large alloc after sweep failed: %v", err)
	}
}

func TestAllocTooLargeRejected(t *testing.T) {
	h := New(1024)
	if _, err := h.Alloc(KindDataArray, 1, 2048); err == nil {
		t.Error("oversized alloc accepted")
	} else if err == ErrHeapExhausted {
		// Correct too: the distinction that matters is non-nil error.
	}
}

func TestLargeListSplitLeavesUsableRemainder(t *testing.T) {
	h := New(4096)
	// Carve a mid-sized chunk out of the single large chunk.
	a, err := h.Alloc(KindDataArray, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// The remainder must serve small allocations.
	b, err := h.Alloc(KindScalar, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("overlapping allocations")
	}
	if h.LiveWords()+h.FreeWords() != h.CapacityWords() {
		t.Error("accounting broken after large split")
	}
	if errs := h.Verify(nil); len(errs) != 0 {
		t.Errorf("verify: %v", errs)
	}
}
