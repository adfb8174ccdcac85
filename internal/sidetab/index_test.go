package sidetab

import "testing"

// checkIndex compares the index with the model, through Get and through a
// full slot walk (which must see every entry exactly once).
func checkIndex(t *testing.T, x *Index, model map[uint32]int32) {
	t.Helper()
	if x.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", x.Len(), len(model))
	}
	for k, want := range model {
		if got, ok := x.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v want %d,true", k, got, ok, want)
		}
	}
	seen := 0
	for i := 0; i < x.Slots(); i++ {
		k, v, _ := x.Slot(i)
		if k == 0 {
			continue
		}
		seen++
		if want, ok := model[k]; !ok || want != v {
			t.Fatalf("slot %d holds %d->%d, model has %d,%v", i, k, v, want, ok)
		}
	}
	if seen != len(model) {
		t.Fatalf("walk saw %d entries, want %d", seen, len(model))
	}
}

// FuzzOwneeIndex drives a random op stream against an Index in lockstep
// with a map model. The key byte picks one of 256 keys chosen to collide:
// groups of eight share a home slot at the minimum capacity, and the homes
// sit in the last slots of the table, so probe chains wrap past the end and
// backward-shift deletion crosses the wrap. Inserting past twelve entries
// exercises growth (stamps must survive the rehash); deleting a key and
// re-inserting it with a different value models a recycled Ref, which must
// come back unstamped and with the new owner only.
func FuzzOwneeIndex(f *testing.F) {
	// Three keys with one home in the last slot, then the first deleted: the
	// other two must shift back across the wrap.
	f.Add([]byte{0, 0, 5, 0, 1, 9, 0, 2, 7, 2, 1, 0, 1, 0, 0, 5, 0, 0, 0, 0, 3})
	grow := make([]byte, 0, 200)
	for i := 0; i < 40; i++ {
		grow = append(grow, 0, byte(i*5), byte(i))
	}
	for i := 0; i < 40; i += 2 {
		grow = append(grow, 1, byte(i*5), 0)
	}
	f.Add(grow)

	// keys[b]: a nonzero even key whose home at capacity 16 is slot
	// 15 - (b/8)%4, found by search so the test does not restate the hash.
	probe := &Index{shift: 28}
	var keys [256]uint32
	next := uint32(2)
	for b := range keys {
		want := uint32(15 - (b/8)%4)
		for probe.home(next) != want {
			next += 2
		}
		keys[b] = next
		next += 2
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		x := NewIndex()
		x.epoch = ^uint32(0) - 1 // two NextEpochs from the wrap
		model := map[uint32]int32{}
		stamped := map[uint32]bool{}

		for i := 0; i+2 < len(data); i += 3 {
			op, k, v := data[i], keys[data[i+1]], int32(data[i+2])
			switch op % 6 {
			case 0:
				got, fresh := x.Insert(k, v)
				want, present := model[k]
				if fresh == present || (present && got != want) || (fresh && got != v) {
					t.Fatalf("op %d: Insert(%d,%d) = %d,%v; model had %d,%v", i, k, v, got, fresh, want, present)
				}
				if fresh {
					model[k] = v
				}
			case 1:
				_, present := model[k]
				if x.Delete(k) != present {
					t.Fatalf("op %d: Delete(%d) disagreed with the model (present %v)", i, k, present)
				}
				delete(model, k)
				delete(stamped, k)
			case 2:
				got, ok := x.Lookup(k)
				want, present := model[k]
				if ok != present || got != want {
					t.Fatalf("op %d: Lookup(%d) = %d,%v want %d,%v", i, k, got, ok, want, present)
				}
				if ok {
					stamped[k] = true
				}
			case 3:
				x.NextEpoch()
				stamped = map[uint32]bool{}
			case 4:
				// The purge walk: drop every entry whose value has v's
				// parity, re-examining a slot after deleting from it.
				for s := 0; s < x.Slots(); {
					key, val, _ := x.Slot(s)
					if key != 0 && val&1 == v&1 {
						x.DeleteSlot(s)
						continue
					}
					s++
				}
				for key, val := range model {
					if val&1 == v&1 {
						delete(model, key)
						delete(stamped, key)
					}
				}
			case 5:
				for s := 0; s < x.Slots(); s++ {
					if key, _, st := x.Slot(s); key != 0 && st != stamped[key] {
						t.Fatalf("op %d: key %d stamped=%v, model %v", i, key, st, stamped[key])
					}
				}
			}
			checkIndex(t, x, model)
		}
	})
}

func TestIndexFootprintFollowsEntries(t *testing.T) {
	x := NewIndex()
	if x.Bytes() != 0 {
		t.Fatalf("empty index holds %d bytes", x.Bytes())
	}
	for k := uint32(2); k <= 2*15000; k += 2 {
		x.Insert(k, 0)
	}
	// 15 000 entries under three-quarters load need 32 768 slots.
	if got, want := x.Bytes(), uint64(32768*indexSlotBytes); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}
