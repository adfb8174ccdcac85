// Package sidetab holds Index, the hash table keyed by Ref that the
// assertion engine and the tracer use for ownership: owner objects to their
// slot, ownees to their owner's slot, with a per-pass stamp on each entry.
// It is sized by the number of entries rather than by the arena, because a
// small fraction of objects carry that state for a long time.
package sidetab

import (
	"math/bits"
	"sync/atomic"
)

// Index is an open-addressed hash table from nonzero uint32 keys (Refs) to
// int32 values, with linear probing, backward-shift deletion and a
// power-of-two capacity kept under three-quarters full. Its footprint
// follows the entry count — 12 bytes per slot — not the arena size.
//
// Each entry also carries a stamp. Lookup writes the index's current epoch
// into the entry it finds; Slot reports whether an entry's stamp is
// current; NextEpoch retires every stamp at once. A caller that looks
// entries up on one pass and walks the whole table on a later one (the
// collector's ownership phase and pre-sweep purge) thereby learns during
// the walk which entries the first pass touched, without revisiting what
// the keys refer to. Get is the lookup that leaves no stamp.
//
// Not internally synchronized; Bytes may be read concurrently with use.
type Index struct {
	slots []indexSlot // nil until the first Insert
	n     int
	shift uint32 // 32 - log2(len(slots))
	epoch uint32 // never 0: a zero stamp is never current
	bytes atomic.Uint64
}

type indexSlot struct {
	key   uint32 // 0 marks an empty slot (the null Ref is never a key)
	val   int32
	stamp uint32
}

const (
	indexMinCap    = 16
	indexSlotBytes = 12
)

// NewIndex creates an empty index.
func NewIndex() *Index { return &Index{epoch: 1} }

// home is the preferred slot for key: Fibonacci hashing, keeping the
// product's high bits (Refs are even, so its low bit is always zero).
func (x *Index) home(key uint32) uint32 { return (key * 2654435769) >> x.shift }

// find returns the slot holding key, or -1.
func (x *Index) find(key uint32) int {
	if x.n == 0 {
		return -1
	}
	mask := uint32(len(x.slots) - 1)
	for i := x.home(key); ; i = (i + 1) & mask {
		switch x.slots[i].key {
		case key:
			return int(i)
		case 0:
			return -1
		}
	}
}

// Get returns key's value, if present.
func (x *Index) Get(key uint32) (int32, bool) {
	i := x.find(key)
	if i < 0 {
		return 0, false
	}
	return x.slots[i].val, true
}

// Lookup is Get that also stamps the entry with the current epoch.
func (x *Index) Lookup(key uint32) (int32, bool) {
	i := x.find(key)
	if i < 0 {
		return 0, false
	}
	s := &x.slots[i]
	s.stamp = x.epoch
	return s.val, true
}

// Insert adds key -> val unless key is already present. It returns the
// value now stored under key and whether this call stored it. A fresh entry
// is unstamped.
func (x *Index) Insert(key uint32, val int32) (int32, bool) {
	if key == 0 {
		panic("sidetab: Index.Insert with zero key")
	}
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow()
	}
	mask := uint32(len(x.slots) - 1)
	for i := x.home(key); ; i = (i + 1) & mask {
		s := &x.slots[i]
		switch s.key {
		case key:
			return s.val, false
		case 0:
			*s = indexSlot{key: key, val: val}
			x.n++
			return val, true
		}
	}
}

// Delete removes key's entry, reporting whether there was one.
func (x *Index) Delete(key uint32) bool {
	i := x.find(key)
	if i < 0 {
		return false
	}
	x.DeleteSlot(i)
	return true
}

// grow doubles the table (allocating it at indexMinCap first). Entries keep
// their stamps.
func (x *Index) grow() {
	newCap := indexMinCap
	if len(x.slots) > 0 {
		newCap = 2 * len(x.slots)
	}
	old := x.slots
	x.slots = make([]indexSlot, newCap)
	x.shift = uint32(32 - bits.TrailingZeros32(uint32(newCap)))
	x.bytes.Store(uint64(newCap) * indexSlotBytes)
	mask := uint32(newCap - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := x.home(s.key)
		for x.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}

// Len returns the number of entries.
func (x *Index) Len() int { return x.n }

// Bytes returns the table's current storage footprint.
func (x *Index) Bytes() uint64 { return x.bytes.Load() }

// Slots returns the number of slots a full walk visits.
func (x *Index) Slots() int { return len(x.slots) }

// Slot returns the entry in slot i — key 0 for an empty slot — and whether
// a Lookup stamped it in the current epoch.
func (x *Index) Slot(i int) (key uint32, val int32, stamped bool) {
	s := &x.slots[i]
	return s.key, s.val, s.stamp == x.epoch
}

// DeleteSlot removes the entry in slot i, compacting the probe chain behind
// it so lookups stay tombstone-free. The compaction may move a later entry
// into slot i: a walk that deletes must look at slot i again before moving
// on. It never moves an entry the walk has not reached into a slot the walk
// has passed — entries only move backward along their probe chain, and a
// chain that wraps past the end of the table moves already-visited entries
// (low slots) into not-yet-visited ones (high slots), which is harmless to
// an idempotent walk.
func (x *Index) DeleteSlot(i int) {
	x.n--
	mask := uint32(len(x.slots) - 1)
	j := uint32(i)
	for {
		x.slots[j] = indexSlot{}
		k := j
		for {
			k = (k + 1) & mask
			s := x.slots[k]
			if s.key == 0 {
				return
			}
			// s may shift back to j only if j still lies within its probe
			// chain (between its home slot and k, cyclically).
			if (k-x.home(s.key))&mask >= (k-j)&mask {
				x.slots[j] = s
				j = k
				break
			}
		}
	}
}

// NextEpoch retires every stamp: no entry is stamped until the next Lookup.
// On the 32-bit wrap the stamps are zeroed and the epoch restarts at 1.
func (x *Index) NextEpoch() {
	x.epoch++
	if x.epoch == 0 {
		for i := range x.slots {
			x.slots[i].stamp = 0
		}
		x.epoch = 1
	}
}
