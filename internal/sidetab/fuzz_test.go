package sidetab

import "testing"

// FuzzSideTab drives a random op stream against Bits in lockstep with a
// reference Go map, with the two hazards the layout has: keys straddling
// chunk boundaries (the key byte is scaled so consecutive byte values cross
// chunk edges) and epoch rollover (the epoch starts three Clears short of the
// uint32 wrap, so every input that clears four times crosses the rollover and
// the zero-chunks path must preserve set/map equivalence).
func FuzzSideTab(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{4, 4, 4, 4, 5, 6, 7, 8, 9, 10})
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		bits := NewBits()
		bits.epoch = ^uint32(0) - 3
		bitsRef := map[uint32]bool{}

		// Spread 256 key bytes across several chunks so boundary slots
		// (last of chunk d, first of chunk d+1) are exercised.
		key := func(b byte) uint32 {
			return (uint32(b) * (chunkSlots*2/32 + 2)) &^ 1
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, kb := data[i], data[i+1]
			k := key(kb)
			switch op % 5 {
			case 0:
				fresh := bits.Set(k)
				if fresh == bitsRef[k] {
					t.Fatalf("op %d: Set(%d) fresh=%v but ref present=%v", i, k, fresh, bitsRef[k])
				}
				bitsRef[k] = true
			case 1:
				bits.Unset(k)
				delete(bitsRef, k)
			case 2:
				if got, want := bits.Get(k), bitsRef[k]; got != want {
					t.Fatalf("op %d: Get(%d) = %v, want %v", i, k, got, want)
				}
			case 3:
				bits.Clear()
				bitsRef = map[uint32]bool{}
			case 4:
				if bits.Len() != len(bitsRef) {
					t.Fatalf("op %d: Bits.Len = %d, want %d", i, bits.Len(), len(bitsRef))
				}
			}
		}

		// Final full sweep: Range agrees with the model exactly.
		got := map[uint32]bool{}
		bits.Range(func(k uint32) { got[k] = true })
		if len(got) != len(bitsRef) {
			t.Fatalf("final Bits.Range size %d, want %d", len(got), len(bitsRef))
		}
		for k := range bitsRef {
			if !got[k] {
				t.Fatalf("final Bits missing key %d", k)
			}
		}
	})
}
