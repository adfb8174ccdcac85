// Package sidetab provides side tables keyed by Ref for the profiling and
// assertion paths that cannot afford a Go map's hash and pointer chase.
//
// The epoch-stamped, arena-indexed tables serve heap-wide per-object state
// (the per-access staleness touch). A Ref is already a bounded uint32 word
// index into the arena, so they index directly:
//
//   - Two-level chunked layout. A directory of fixed-size chunks covers
//     the slot space; chunks materialize on first write, so sparse use
//     (a handful of asserted objects in a large arena) stays cheap, and
//     an untouched table costs one directory slice.
//
//   - Epoch stamping. Each entry is "present" iff its uint32 stamp equals
//     the table's current epoch, so clearing for a new cycle is a single
//     epoch increment: O(1), zero allocation, no matter how many entries
//     were set. When the epoch wraps (once per 2^32-1 clears) every
//     materialized chunk is zeroed and the epoch restarts at 1 — stamp 0
//     never matches.
//
//   - Slot = key >> 1. Objects are 2-word aligned (vmheap), so every Ref
//     is even and half the slot space suffices. Keys must be even; an odd
//     key would alias its even neighbor.
//
// Bits is the set variant (membership only) and Epoch32 is the persistent
// profiling variant where the stored uint32 is itself the datum (0 = absent,
// no cycle epoch — staleness last-access tracking).
//
// Index (index.go) is the other shape: a hash table sized by the number of
// entries rather than by the arena, for state that a small fraction of
// objects carry for a long time (the ownership pairs).
//
// None of the types is internally synchronized: a table is owned by one
// goroutine (profiling) or an outer lock.
package sidetab

const (
	// chunkShift sizes a chunk at 4096 slots (8192 heap words, 16 KiB of
	// stamps): small enough that one asserted object materializes little,
	// large enough that the directory stays short for real heaps.
	chunkShift = 12
	chunkSlots = 1 << chunkShift
	chunkMask  = chunkSlots - 1
)

// ---------------------------------------------------------------------------
// Bits

// Bits is an epoch-stamped set of even uint32 keys. Clear is O(1).
// Not internally synchronized.
type Bits struct {
	epoch  uint32
	count  int
	chunks [][]uint32
}

// NewBits creates an empty set.
func NewBits() *Bits { return &Bits{epoch: 1} }

// chunk returns the chunk holding slot s, materializing it and growing the
// directory as needed.
func (b *Bits) chunk(s uint32) []uint32 {
	d := s >> chunkShift
	for int(d) >= len(b.chunks) {
		b.chunks = append(b.chunks, nil)
	}
	c := b.chunks[d]
	if c == nil {
		c = make([]uint32, chunkSlots)
		b.chunks[d] = c
	}
	return c
}

// Get reports whether key is in the set.
func (b *Bits) Get(key uint32) bool {
	s := key >> 1
	d := s >> chunkShift
	if int(d) >= len(b.chunks) {
		return false
	}
	c := b.chunks[d]
	return c != nil && c[s&chunkMask] == b.epoch
}

// Set adds key to the set, reporting whether it was newly added.
func (b *Bits) Set(key uint32) bool {
	s := key >> 1
	c := b.chunk(s)
	i := s & chunkMask
	if c[i] == b.epoch {
		return false
	}
	c[i] = b.epoch
	b.count++
	return true
}

// Unset removes key from the set (stamp 0 matches no epoch).
func (b *Bits) Unset(key uint32) {
	s := key >> 1
	d := s >> chunkShift
	if int(d) >= len(b.chunks) {
		return
	}
	c := b.chunks[d]
	if c == nil || c[s&chunkMask] != b.epoch {
		return
	}
	c[s&chunkMask] = 0
	b.count--
}

// Clear empties the set: one epoch bump in steady state; a full chunk
// zeroing only when the 32-bit epoch wraps.
func (b *Bits) Clear() {
	b.count = 0
	b.epoch++
	if b.epoch == 0 {
		for _, c := range b.chunks {
			if c != nil {
				clear(c)
			}
		}
		b.epoch = 1
	}
}

// Len returns the number of keys in the set.
func (b *Bits) Len() int { return b.count }

// Range calls fn for each key in the set, in ascending key order.
func (b *Bits) Range(fn func(key uint32)) {
	for d, c := range b.chunks {
		if c == nil {
			continue
		}
		for i, st := range c {
			if st == b.epoch {
				fn((uint32(d)<<chunkShift + uint32(i)) << 1)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Epoch32

// Epoch32 is the persistent profiling variant: each present key carries a
// nonzero uint32 that is itself the datum (a biased epoch, a generation
// stamp), and 0 means absent. There is no table epoch and no O(1) Clear —
// entries leave by Delete — which is exactly the lifetime the staleness
// tracker's last-access table needs. Not internally synchronized.
type Epoch32 struct {
	count  int
	chunks [][]uint32
}

// NewEpoch32 creates an empty table.
func NewEpoch32() *Epoch32 { return &Epoch32{} }

func (e *Epoch32) chunk(s uint32) []uint32 {
	d := s >> chunkShift
	for int(d) >= len(e.chunks) {
		e.chunks = append(e.chunks, nil)
	}
	c := e.chunks[d]
	if c == nil {
		c = make([]uint32, chunkSlots)
		e.chunks[d] = c
	}
	return c
}

// Get returns the value for key, if present.
func (e *Epoch32) Get(key uint32) (uint32, bool) {
	s := key >> 1
	d := s >> chunkShift
	if int(d) >= len(e.chunks) {
		return 0, false
	}
	c := e.chunks[d]
	if c == nil {
		return 0, false
	}
	v := c[s&chunkMask]
	return v, v != 0
}

// Set inserts or replaces the value for key. v must be nonzero (0 encodes
// absence); Set panics otherwise to keep the invariant loud.
func (e *Epoch32) Set(key uint32, v uint32) {
	if v == 0 {
		panic("sidetab: Epoch32.Set with zero value")
	}
	c := e.chunk(key >> 1)
	i := (key >> 1) & chunkMask
	if c[i] == 0 {
		e.count++
	}
	c[i] = v
}

// Delete removes key from the table.
func (e *Epoch32) Delete(key uint32) {
	s := key >> 1
	d := s >> chunkShift
	if int(d) >= len(e.chunks) {
		return
	}
	c := e.chunks[d]
	if c == nil || c[s&chunkMask] == 0 {
		return
	}
	c[s&chunkMask] = 0
	e.count--
}

// Len returns the number of present keys.
func (e *Epoch32) Len() int { return e.count }

// Range calls fn for each present key in ascending order; fn returning
// false stops the walk. Deleting the current key inside fn is allowed.
func (e *Epoch32) Range(fn func(key uint32, v uint32) bool) {
	for d, c := range e.chunks {
		if c == nil {
			continue
		}
		for i, v := range c {
			if v == 0 {
				continue
			}
			if !fn((uint32(d)<<chunkShift+uint32(i))<<1, v) {
				return
			}
		}
	}
}
