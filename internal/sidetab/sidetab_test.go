package sidetab

import (
	"testing"
)

func TestBitsBasics(t *testing.T) {
	b := NewBits()
	keys := []uint32{2, 4, chunkSlots * 2, chunkSlots*4 - 2, 1 << 20}
	for _, k := range keys {
		if b.Get(k) {
			t.Fatalf("key %d present in empty set", k)
		}
		if !b.Set(k) {
			t.Fatalf("Set(%d) not fresh on first insert", k)
		}
		if b.Set(k) {
			t.Fatalf("Set(%d) fresh on second insert", k)
		}
		if !b.Get(k) {
			t.Fatalf("key %d absent after Set", k)
		}
	}
	if b.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(keys))
	}
	var got []uint32
	b.Range(func(k uint32) { got = append(got, k) })
	if len(got) != len(keys) {
		t.Fatalf("Range yielded %d keys, want %d", len(got), len(keys))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Range out of order: %v", got)
		}
	}
	b.Unset(keys[0])
	if b.Get(keys[0]) || b.Len() != len(keys)-1 {
		t.Fatalf("Unset did not remove key")
	}
	b.Unset(keys[0]) // second Unset is a no-op
	if b.Len() != len(keys)-1 {
		t.Fatalf("double Unset changed Len")
	}
}

func TestBitsClearIsEmptyAndReusable(t *testing.T) {
	b := NewBits()
	for k := uint32(0); k < 2*chunkSlots*2; k += 2 {
		b.Set(k)
	}
	materialized := func() (n int) {
		for _, c := range b.chunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	chunksBefore := materialized()
	b.Clear()
	if b.Len() != 0 {
		t.Fatalf("Len after Clear = %d", b.Len())
	}
	for k := uint32(0); k < 2*chunkSlots*2; k += 2 {
		if b.Get(k) {
			t.Fatalf("key %d survived Clear", k)
		}
	}
	// Steady-state reuse materializes no new chunks.
	for k := uint32(0); k < 2*chunkSlots*2; k += 2 {
		if !b.Set(k) {
			t.Fatalf("Set(%d) not fresh after Clear", k)
		}
	}
	if got := materialized(); got != chunksBefore {
		t.Fatalf("chunks grew across Clear: %d -> %d", chunksBefore, got)
	}
}

func TestBitsEpochRollover(t *testing.T) {
	b := NewBits()
	b.Set(2)
	b.epoch = ^uint32(0) // force the next Clear to wrap
	// The entry's old stamp must not alias the post-rollover epoch.
	b.chunks[0][1] = 1 // stamp as if set at epoch 1 long ago
	b.count = 1
	b.Clear()
	if b.epoch != 1 {
		t.Fatalf("epoch after rollover = %d, want 1", b.epoch)
	}
	if b.Get(2) {
		t.Fatalf("stale stamp visible after rollover")
	}
	b.Set(2)
	if !b.Get(2) {
		t.Fatalf("Set after rollover lost")
	}
}

func TestEpoch32(t *testing.T) {
	e := NewEpoch32()
	if _, ok := e.Get(2); ok {
		t.Fatalf("empty Epoch32 has key")
	}
	e.Set(2, 5)
	e.Set(2, 6)
	e.Set(chunkSlots*2+8, 1)
	if v, ok := e.Get(2); !ok || v != 6 {
		t.Fatalf("Get(2) = %d,%v", v, ok)
	}
	if e.Len() != 2 {
		t.Fatalf("Len = %d", e.Len())
	}
	e.Delete(2)
	if _, ok := e.Get(2); ok || e.Len() != 1 {
		t.Fatalf("Delete left entry")
	}
	sum := uint32(0)
	e.Range(func(k, v uint32) bool { sum += v; return true })
	if sum != 1 {
		t.Fatalf("Range sum = %d", sum)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Set(0) did not panic")
		}
	}()
	e.Set(4, 0)
}
