package core

import (
	"sync"

	"repro/internal/trace"
	"repro/internal/vmheap"
)

// Cross-zone remembered sets (Config.Zones >= 2).
//
// A zone collection treats references from other zones as roots. Rescanning
// every other zone to find them would make a "zone" collection a whole-heap
// walk, so the write barrier in SetRef/ArrSetRef maintains one remembered
// set per TARGET zone: slot address (the absolute arena word holding the
// reference) to the source object containing that slot.
//
// Slot granularity is load-bearing for assertion equivalence, not just an
// optimization: a whole-heap trace encounters an object once per incoming
// reference, and assert-unshared counts those encounters. Rooting a zone
// trace by slot (not by source object, and not deduplicated by target)
// reproduces exactly one encounter per inbound cross-zone reference, so a
// per-zone collection reports the same SharedObject verdicts a whole-heap
// collection would.
//
// Storage: each per-zone set is an open-addressed, power-of-two hash table
// keyed by slot word (remtab) — slot 0 is the empty sentinel, valid because
// arena word 0 is reserved for the null reference and can never address a
// field. The barrier's delete+insert per cross-zone store runs without any
// allocation in steady state, where the previous map-backed representation
// paid hash-map overhead on the hottest barrier path (BenchmarkRemsetBarrier
// tracks the difference).
//
// Locking: each table carries its own leaf mutex, the innermost lock in the
// runtime's order (zone locks -> rt.mu -> bufMu -> engine guard -> remtab.mu;
// nothing is acquired under a table lock). The leaf locks exist for the
// concurrent zone-collection paths: a zone sweep runs the free observer
// (onFree) with only its zone lock held, while mutators in other zones run
// the barrier and other collections resolve their root slots.
//
// Entries can go stale three ways, each with its own purge:
//
//   - the source object dies: every zone sweep runs the free observer
//     (onFree, installed on each zone by New and chained after the
//     assertion engine's own hook), which drops entries by source. Only
//     objects carrying FlagZoneSrc — set by the barrier when the first
//     cross-zone reference is stored — pay the scan.
//
//   - the slot is overwritten through the barrier: recordStore deletes the
//     old target's entry before adding the new one.
//
//   - the slot is nulled behind the barrier's back (a Force verdict from
//     assert-dead nulls referencing slots mid-trace; ownership vacating
//     nulls slots in PreSweep): resolve — run at the start of every zone
//     collection — and validate — its world-locked counterpart, for
//     Zone.Retire — drop any entry whose slot no longer holds a reference
//     into the target zone. The zone tracer also reports slots it nulls
//     itself so they are dropped eagerly.
type remsets struct {
	heap *vmheap.Heap // any peer: used for zone lookup and slot access
	// tabs[z] is zone z's inbound set: slot word -> source object.
	tabs []remtab
}

// remtab is one zone's inbound remembered set: an open-addressed hash table
// from slot word to source Ref with linear probing and backward-shift
// deletion. Capacity is a power of two; slot 0 marks an empty bucket.
type remtab struct {
	mu    sync.Mutex
	slots []uint32
	srcs  []Ref
	n     int
}

const remtabMinCap = 16

// home returns the preferred bucket for a slot key (Fibonacci hashing:
// sequential slot words — the common case, fields of one object — scatter
// across the table instead of clustering).
func remtabHome(slot uint32, mask uint32) uint32 {
	return (slot * 2654435761) & mask
}

// find returns the index holding slot, or -1. Caller holds t.mu.
func (t *remtab) find(slot uint32) int {
	if t.n == 0 {
		return -1
	}
	mask := uint32(len(t.slots) - 1)
	for i := remtabHome(slot, mask); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == slot {
			return int(i)
		}
		if s == 0 {
			return -1
		}
	}
}

// put inserts or overwrites slot -> src. Caller holds t.mu.
func (t *remtab) put(slot uint32, src Ref) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := remtabHome(slot, mask); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == slot {
			t.srcs[i] = src
			return
		}
		if s == 0 {
			t.slots[i] = slot
			t.srcs[i] = src
			t.n++
			return
		}
	}
}

// del removes slot's entry if present, compacting the probe chain behind it
// (backward-shift deletion keeps probes tombstone-free). Caller holds t.mu.
func (t *remtab) del(slot uint32) {
	i := t.find(slot)
	if i < 0 {
		return
	}
	t.n--
	mask := uint32(len(t.slots) - 1)
	j := uint32(i)
	for {
		t.slots[j] = 0
		t.srcs[j] = Nil
		k := j
		for {
			k = (k + 1) & mask
			s := t.slots[k]
			if s == 0 {
				return
			}
			// An entry may shift back to j only if j still lies within its
			// probe chain (between its home bucket and k, cyclically).
			if (k-remtabHome(s, mask))&mask >= (k-j)&mask {
				t.slots[j] = s
				t.srcs[j] = t.srcs[k]
				j = k
				break
			}
		}
	}
}

// grow doubles the table (allocating it at remtabMinCap first). Caller
// holds t.mu.
func (t *remtab) grow() {
	newCap := remtabMinCap
	if len(t.slots) > 0 {
		newCap = 2 * len(t.slots)
	}
	oldSlots, oldSrcs := t.slots, t.srcs
	t.slots = make([]uint32, newCap)
	t.srcs = make([]Ref, newCap)
	mask := uint32(newCap - 1)
	for i, s := range oldSlots {
		if s == 0 {
			continue
		}
		for j := remtabHome(s, mask); ; j = (j + 1) & mask {
			if t.slots[j] == 0 {
				t.slots[j] = s
				t.srcs[j] = oldSrcs[i]
				break
			}
		}
	}
}

// each visits every entry. The visitor must not mutate the table; deletions
// are collected and applied by callers after the walk (backward-shift
// deletion moves not-yet-visited entries into visited buckets, so deleting
// mid-walk would skip entries). Caller holds t.mu.
func (t *remtab) each(fn func(slot uint32, src Ref)) {
	if t.n == 0 {
		return
	}
	for i, s := range t.slots {
		if s != 0 {
			fn(s, t.srcs[i])
		}
	}
}

// newRemsets creates empty remembered sets for every zone of h's arena.
func newRemsets(h *vmheap.Heap) *remsets {
	return &remsets{heap: h, tabs: make([]remtab, h.ZoneCount())}
}

// recordStore is the write-barrier hook: src's slot (absolute arena word)
// is about to change from old to val. Cross-zone entries are kept exact:
// the old target zone's entry is dropped, the new target zone's added. The
// caller holds the zone locks of src, old, and val (fields.go), so no
// collection of either target zone is in flight; the table locks order the
// update against free-observer purges from other zones' sweeps.
func (rs *remsets) recordStore(src Ref, slot uint32, old, val Ref) {
	srcZone := rs.heap.ZoneIndexOf(src)
	if old != Nil {
		if z := rs.heap.ZoneIndexOf(old); z != srcZone {
			t := &rs.tabs[z]
			t.mu.Lock()
			t.del(slot)
			t.mu.Unlock()
		}
	}
	if val != Nil {
		if z := rs.heap.ZoneIndexOf(val); z != srcZone {
			t := &rs.tabs[z]
			t.mu.Lock()
			t.put(slot, src)
			t.mu.Unlock()
			// Sticky: never cleared while the object lives. A false
			// positive after the last cross-zone reference is removed only
			// costs the freed-source scan below.
			rs.heap.SetFlags(src, vmheap.FlagZoneSrc)
		}
	}
}

// onFree is the per-zone free observer: when a remembered-set source is
// reclaimed by any sweep, its entries (keyed by slots inside the freed
// object) are dropped from every zone's set before the memory can be
// reused. Objects never flagged as sources skip the scan entirely. Runs
// under the sweeping zone's lock only, hence the table locks.
func (rs *remsets) onFree(r Ref, hd uint64) {
	if hd&vmheap.FlagZoneSrc == 0 {
		return
	}
	var stale []uint32
	for z := range rs.tabs {
		t := &rs.tabs[z]
		t.mu.Lock()
		stale = stale[:0]
		t.each(func(slot uint32, src Ref) {
			if src == r {
				stale = append(stale, slot)
			}
		})
		for _, slot := range stale {
			t.del(slot)
		}
		t.mu.Unlock()
	}
}

// validate drops every stale entry from zone target's inbound set: the
// source must still be an allocated object and the slot must still hold a
// reference into the target zone. Run before the entries are used as
// survivor evidence (retire); the caller holds the world lock, so the
// liveness check cannot race a sweep.
func (rs *remsets) validate(target int) {
	t := &rs.tabs[target]
	t.mu.Lock()
	defer t.mu.Unlock()
	var stale []uint32
	t.each(func(slot uint32, src Ref) {
		v := rs.heap.SlotRef(slot)
		if v == Nil || !rs.heap.IsObject(src) || rs.heap.ZoneIndexOf(v) != target {
			stale = append(stale, slot)
		}
	})
	for _, slot := range stale {
		t.del(slot)
	}
}

// resolve is validate's zone-collection counterpart: it prunes zone
// target's set and returns each surviving entry's slot with its target
// reference, read once here under the table lock. The caller holds the
// target's zone lock and rt.mu (collection setup), which is weaker than the
// world lock, so two concessions keep it sound:
//
//   - the slot read is atomic (another in-flight zone collection may
//     force-null a slot this table stale-carries), and
//
//   - the source-liveness check (validate's IsObject) is dropped: another
//     zone's concurrent sweep may be clearing survivor mark bits, and any
//     header read here would race it. Conservatism is safe — a dead
//     source's entry roots its target one rotation longer — and bounded:
//     when the source is actually reclaimed, the free observer (which
//     serializes on this table's lock) purges the entry before the memory
//     is reused, so a surviving entry's slot word is never recycled memory.
//
// The returned null function is handed to the trace for Force verdicts: it
// re-checks entry presence under the table lock, so a slot is nulled only
// while its entry still stands.
func (rs *remsets) resolve(target int) ([]trace.SlotTarget, func(slot uint32)) {
	t := &rs.tabs[target]
	t.mu.Lock()
	var stale []uint32
	var targets []trace.SlotTarget
	t.each(func(slot uint32, src Ref) {
		v := rs.heap.SlotRefAtomic(slot)
		if v == Nil || rs.heap.ZoneIndexOf(v) != target {
			stale = append(stale, slot)
			return
		}
		targets = append(targets, trace.SlotTarget{Slot: slot, Target: v})
	})
	for _, slot := range stale {
		t.del(slot)
	}
	t.mu.Unlock()

	null := func(slot uint32) {
		t.mu.Lock()
		if t.find(slot) >= 0 {
			rs.heap.SetSlotRefAtomic(slot, vmheap.Nil)
			t.del(slot)
		}
		t.mu.Unlock()
	}
	return targets, null
}

// slots returns zone target's inbound slot words (a retire's survivor
// evidence). Order is unspecified.
func (rs *remsets) slots(target int) []uint32 {
	t := &rs.tabs[target]
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint32, 0, t.n)
	t.each(func(slot uint32, _ Ref) { out = append(out, slot) })
	return out
}

// retirePurge clears zone target's inbound set (its targets were just bulk
// freed, survivor slots already nulled) and drops every other zone's
// entries sourced from target (those source objects were freed with it).
func (rs *remsets) retirePurge(target int) {
	t := &rs.tabs[target]
	t.mu.Lock()
	t.slots = nil
	t.srcs = nil
	t.n = 0
	t.mu.Unlock()
	var stale []uint32
	for z := range rs.tabs {
		if z == target {
			continue
		}
		t := &rs.tabs[z]
		t.mu.Lock()
		stale = stale[:0]
		t.each(func(slot uint32, src Ref) {
			if rs.heap.ZoneIndexOf(src) == target {
				stale = append(stale, slot)
			}
		})
		for _, slot := range stale {
			t.del(slot)
		}
		t.mu.Unlock()
	}
}

// RemsetEntries returns a raw snapshot of zone's inbound remembered set —
// slot word to source object — with no staleness purge applied. Tool- and
// test-grade: the precision property test asserts that after a per-zone
// collection every entry already points at a live slot of the right kind,
// so this accessor must not clean up behind the barrier's back. Returns nil
// on an unzoned runtime.
func (rt *Runtime) RemsetEntries(zone int) map[uint32]Ref {
	rt.lockWorld()
	defer rt.unlockWorld()
	if rt.remsets == nil {
		return nil
	}
	t := &rt.remsets.tabs[zone]
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint32]Ref, t.n)
	t.each(func(slot uint32, src Ref) { out[slot] = src })
	return out
}
