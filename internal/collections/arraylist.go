package collections

import "repro/internal/core"

// initialListCap is the backing-array capacity of a fresh ArrayList.
const initialListCap = 8

// listBlock is how many elements a scan (ListEach, ListIndexOf) reads from
// the backing array per core.ArrReadRefs call: one lock hold and one bounds
// check per block instead of per element, in a buffer small enough to live on
// the scanning goroutine's stack.
const listBlock = 64

// NewList allocates an empty ArrayList on th.
func (k *Kit) NewList(th *core.Thread) core.Ref {
	f := th.PushFrame(1)
	defer th.PopFrame()
	list := th.New(k.listClass)
	f.SetLocal(0, list)
	data := th.NewRefArray(initialListCap)
	k.rt.SetRef(list, k.listData, data)
	return list
}

// ListLen returns the number of elements in the list.
func (k *Kit) ListLen(list core.Ref) int {
	return int(k.rt.GetInt(list, k.listSize))
}

// ListGet returns element i. It panics with *core.IndexError when i is out
// of range.
func (k *Kit) ListGet(list core.Ref, i int) core.Ref {
	k.checkListIndex(list, i)
	return k.rt.ArrGetRef(k.rt.GetRef(list, k.listData), i)
}

// ListSet replaces element i.
func (k *Kit) ListSet(list core.Ref, i int, val core.Ref) {
	k.checkListIndex(list, i)
	k.rt.ArrSetRef(k.rt.GetRef(list, k.listData), i, val)
}

// ListAdd appends val, growing the backing array as needed. th supplies the
// allocation context for growth.
func (k *Kit) ListAdd(th *core.Thread, list core.Ref, val core.Ref) {
	rt := k.rt
	size := int(rt.GetInt(list, k.listSize))
	data := rt.GetRef(list, k.listData)
	if size == rt.ArrLen(data) {
		// Grow: the new array is unreachable until stored, and val may
		// be unreachable too, so pin both (and the list) while we
		// allocate.
		f := th.PushFrame(2)
		f.SetLocal(0, list)
		f.SetLocal(1, val)
		bigger := th.NewRefArray(size * 2)
		data = rt.GetRef(list, k.listData) // re-read: GC cannot move, but be explicit
		rt.ArrCopyRefs(bigger, 0, data, 0, size)
		rt.SetRef(list, k.listData, bigger)
		data = bigger
		th.PopFrame()
	}
	rt.ArrSetRef(data, size, val)
	rt.SetInt(list, k.listSize, int64(size+1))
}

// ListRemoveAt removes element i, shifting the tail left, and returns the
// removed reference.
func (k *Kit) ListRemoveAt(list core.Ref, i int) core.Ref {
	k.checkListIndex(list, i)
	rt := k.rt
	size := int(rt.GetInt(list, k.listSize))
	data := rt.GetRef(list, k.listData)
	out := rt.ArrGetRef(data, i)
	rt.ArrCopyRefs(data, i, data, i+1, size-1-i)
	rt.ArrSetRef(data, size-1, core.Nil)
	rt.SetInt(list, k.listSize, int64(size-1))
	return out
}

// ListClear empties the list, dropping all element references.
func (k *Kit) ListClear(list core.Ref) {
	rt := k.rt
	size := int(rt.GetInt(list, k.listSize))
	data := rt.GetRef(list, k.listData)
	for i := 0; i < size; i++ {
		rt.ArrSetRef(data, i, core.Nil)
	}
	rt.SetInt(list, k.listSize, 0)
}

// ListIndexOf returns the index of the first element equal to val, or -1.
func (k *Kit) ListIndexOf(list core.Ref, val core.Ref) int {
	rt := k.rt
	size := int(rt.GetInt(list, k.listSize))
	data := rt.GetRef(list, k.listData)
	var buf [listBlock]core.Ref
	for from := 0; from < size; from += listBlock {
		n := rt.ArrReadRefs(data, from, buf[:min(listBlock, size-from)])
		for j, e := range buf[:n] {
			if e == val {
				return from + j
			}
		}
	}
	return -1
}

// ListEach calls fn for each element in order.
//
// fn must not structurally modify the list it is iterating — no ListAdd,
// ListRemoveAt or ListClear on it — and ListEach does not detect it if fn
// does: the element count and backing array are read once, before the first
// call. Elements are read listBlock at a time, each block before its first
// callback runs, so a ListSet by fn on an element further along the same
// block is not seen by this iteration. fn may allocate, collect and modify
// other lists freely: a buffered element is an unrooted Go local, as every
// ArrGetRef result is, but it is also still an element of the list, and
// objects do not move.
func (k *Kit) ListEach(list core.Ref, fn func(i int, val core.Ref)) {
	rt := k.rt
	size := int(rt.GetInt(list, k.listSize))
	data := rt.GetRef(list, k.listData)
	var buf [listBlock]core.Ref
	for from := 0; from < size; from += listBlock {
		n := rt.ArrReadRefs(data, from, buf[:min(listBlock, size-from)])
		for j, e := range buf[:n] {
			fn(from+j, e)
		}
	}
}

func (k *Kit) checkListIndex(list core.Ref, i int) {
	if n := int(k.rt.GetInt(list, k.listSize)); i < 0 || i >= n {
		panic(&core.IndexError{Index: i, Len: n})
	}
}
