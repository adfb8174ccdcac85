package core

import (
	"testing"
)

// FuzzAllocBuffer drives one byte-coded mutator script against a direct and
// a buffered runtime and requires the address-independent observables to
// match after every collection: live (class, size) multisets, violation
// multisets, heap accounting, and freed totals. The first byte selects the
// buffer size, so the corpus explores the refill, oversize-fallback, and
// tail-retirement paths.
func FuzzAllocBuffer(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 3, 5, 0, 1, 8, 7, 3})
	f.Add([]byte{1, 0, 0, 0, 1, 4, 2, 3, 0, 1, 5, 2, 2, 8, 0, 0})
	f.Add([]byte{2, 7, 0, 2, 0, 1, 0, 7, 0, 1, 1, 3, 0, 8, 4, 4})
	f.Add([]byte{0, 1, 0, 5, 8, 2, 1, 3, 0, 1, 6, 0, 0, 8, 0, 0, 3, 1, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		SetDebugChecks(true)
		defer SetDebugChecks(false)

		// Buffer sizes around the minimum stress refill churn; larger ones
		// stress tail retirement.
		bufWords := []int{64, 256, 1024}[int(data[0])%3]
		direct := buildAllocWorld(0, 0)
		buffered := buildAllocWorld(bufWords, 0)

		const maxOps = 300
		ops := 0
		for n := 1; n+3 <= len(data) && ops < maxOps; n += 3 {
			code, i, k := data[n], data[n+1], data[n+2]
			ops++
			if code%10 == 9 {
				for _, w := range []*sweepWorld{direct, buffered} {
					for range 2 {
						if err := w.rt.GC(); err != nil {
							t.Fatalf("op %d: GC: %v", ops, err)
						}
					}
				}
				compareAllocWorlds(t, "mid-script", direct, buffered)
				continue
			}
			direct.apply(code, i, k)
			buffered.apply(code, i, k)
		}

		for _, w := range []*sweepWorld{direct, buffered} {
			if err := w.rt.GC(); err != nil {
				t.Fatalf("final GC: %v", err)
			}
		}
		compareAllocWorlds(t, "final", direct, buffered)
		if errs := buffered.rt.VerifyHeap(); len(errs) > 0 {
			t.Fatalf("buffered heap corrupt: %v", errs[0])
		}
	})
}
