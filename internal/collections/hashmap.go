package collections

import "repro/internal/core"

// HashMap is an open-addressing (linear probing) table from int64 keys to
// references. Keys must be in [0, 2^62): the two top bits of the stored key
// word encode the slot state.
const (
	slotEmpty     uint64 = 0
	slotOccupied  uint64 = 1 << 63
	slotTombstone uint64 = 1 << 62

	initialMapCap = 16
	maxLoadNum    = 7 // resize above 7/10 load
	maxLoadDen    = 10
)

// NewMap allocates an empty HashMap into local slot i of f, on f's thread,
// and returns it.
func (k *Kit) NewMap(f *core.Frame, i int) core.Ref {
	th := f.Thread()
	m := f.New(i, k.mapClass)
	tmp := th.PushFrame(1)
	k.rt.SetRef(m, k.mapKeys, tmp.NewDataArray(0, initialMapCap))
	tmp.SetLocal(0, core.Nil) // the map holds the keys: root only what allocates next
	k.rt.SetRef(m, k.mapVals, tmp.NewRefArray(0, initialMapCap))
	th.PopFrame()
	return m
}

// MapLen returns the number of live entries.
func (k *Kit) MapLen(m core.Ref) int {
	return int(k.rt.GetInt(m, k.mapSize))
}

// hashLong mixes an int64 key (Stafford's mix13 finalizer).
func hashLong(key int64) uint64 {
	x := uint64(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MapPut inserts or replaces the mapping for key. th supplies the
// allocation context for resizing.
func (k *Kit) MapPut(th *core.Thread, m core.Ref, key int64, val core.Ref) {
	k.checkKey(key)
	rt := k.rt
	used := rt.GetInt(m, k.mapUsed)
	capacity := rt.ArrLen(rt.GetRef(m, k.mapKeys))
	if int(used+1)*maxLoadDen > capacity*maxLoadNum {
		k.rehash(th, m, val)
	}

	keys := rt.GetRef(m, k.mapKeys)
	vals := rt.GetRef(m, k.mapVals)
	capacity = rt.ArrLen(keys)
	i := int(hashLong(key)) & (capacity - 1)
	firstTomb := -1
	for {
		w := rt.ArrGetData(keys, i)
		switch {
		case w == slotEmpty:
			if firstTomb >= 0 {
				i = firstTomb
			}
			rt.ArrSetData(keys, i, slotOccupied|uint64(key))
			rt.ArrSetRef(vals, i, val)
			rt.SetInt(m, k.mapSize, rt.GetInt(m, k.mapSize)+1)
			if firstTomb < 0 {
				rt.SetInt(m, k.mapUsed, rt.GetInt(m, k.mapUsed)+1)
			}
			return
		case w == slotTombstone:
			if firstTomb < 0 {
				firstTomb = i
			}
		case w == slotOccupied|uint64(key):
			rt.ArrSetRef(vals, i, val)
			return
		}
		i = (i + 1) & (capacity - 1)
	}
}

// MapGet returns the value for key and whether it was present.
func (k *Kit) MapGet(m core.Ref, key int64) (core.Ref, bool) {
	k.checkKey(key)
	rt := k.rt
	keys := rt.GetRef(m, k.mapKeys)
	vals := rt.GetRef(m, k.mapVals)
	capacity := rt.ArrLen(keys)
	i := int(hashLong(key)) & (capacity - 1)
	for {
		w := rt.ArrGetData(keys, i)
		switch {
		case w == slotEmpty:
			return core.Nil, false
		case w == slotOccupied|uint64(key):
			return rt.ArrGetRef(vals, i), true
		}
		i = (i + 1) & (capacity - 1)
	}
}

// MapRemove deletes the mapping for key, reporting whether it existed.
func (k *Kit) MapRemove(m core.Ref, key int64) bool {
	k.checkKey(key)
	rt := k.rt
	keys := rt.GetRef(m, k.mapKeys)
	vals := rt.GetRef(m, k.mapVals)
	capacity := rt.ArrLen(keys)
	i := int(hashLong(key)) & (capacity - 1)
	for {
		w := rt.ArrGetData(keys, i)
		switch {
		case w == slotEmpty:
			return false
		case w == slotOccupied|uint64(key):
			rt.ArrSetData(keys, i, slotTombstone)
			rt.ArrSetRef(vals, i, core.Nil)
			rt.SetInt(m, k.mapSize, rt.GetInt(m, k.mapSize)-1)
			return true
		}
		i = (i + 1) & (capacity - 1)
	}
}

// MapEach calls fn for every entry (iteration order is unspecified).
func (k *Kit) MapEach(m core.Ref, fn func(key int64, val core.Ref)) {
	rt := k.rt
	keys := rt.GetRef(m, k.mapKeys)
	vals := rt.GetRef(m, k.mapVals)
	capacity := rt.ArrLen(keys)
	for i := 0; i < capacity; i++ {
		w := rt.ArrGetData(keys, i)
		if w&slotOccupied != 0 {
			fn(int64(w&^slotOccupied), rt.ArrGetRef(vals, i))
		}
	}
}

// rehash doubles the table. pendingVal is a caller-held reference that must
// survive the allocations here; it is pinned alongside the map.
func (k *Kit) rehash(th *core.Thread, m core.Ref, pendingVal core.Ref) {
	rt := k.rt
	f := th.PushFrame(4)
	defer th.PopFrame()
	f.SetLocal(0, m)
	f.SetLocal(1, pendingVal)

	// Size the new table to the live entries, not the old capacity: a
	// tombstone-heavy table is rebuilt at the same (or smaller) size
	// instead of growing without bound under churn.
	oldCap := rt.ArrLen(rt.GetRef(m, k.mapKeys))
	newCap := initialMapCap
	for live := int(rt.GetInt(m, k.mapSize)); (live+1)*maxLoadDen > newCap*maxLoadNum; {
		newCap *= 2
	}
	newKeys := f.NewDataArray(2, newCap)
	newVals := f.NewRefArray(3, newCap)

	oldKeys := rt.GetRef(m, k.mapKeys)
	oldVals := rt.GetRef(m, k.mapVals)
	for i := 0; i < oldCap; i++ {
		w := rt.ArrGetData(oldKeys, i)
		if w&slotOccupied == 0 {
			continue
		}
		key := int64(w &^ slotOccupied)
		j := int(hashLong(key)) & (newCap - 1)
		for rt.ArrGetData(newKeys, j) != slotEmpty {
			j = (j + 1) & (newCap - 1)
		}
		rt.ArrSetData(newKeys, j, w)
		rt.ArrSetRef(newVals, j, rt.ArrGetRef(oldVals, i))
	}
	rt.SetRef(m, k.mapKeys, newKeys)
	rt.SetRef(m, k.mapVals, newVals)
	rt.SetInt(m, k.mapUsed, rt.GetInt(m, k.mapSize))
}

func (k *Kit) checkKey(key int64) {
	if key < 0 || uint64(key)&(slotOccupied|slotTombstone) != 0 {
		panic("collections: HashMap keys must be in [0, 2^62)")
	}
}
