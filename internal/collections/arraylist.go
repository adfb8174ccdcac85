package collections

import "repro/internal/core"

// initialListCap is the backing-array capacity of a fresh ArrayList.
const initialListCap = 8

// ListBlock is the buffer length ListEach and ListIndexOf scan with: one
// core.ArrReadRefs call, so one lock hold and one bounds check, per
// ListBlock elements instead of per element.
const ListBlock = 64

// NewList allocates an empty ArrayList into local slot i of f, on f's
// thread, and returns it.
func (k *Kit) NewList(f core.Frame, i int) core.Ref {
	th := f.Thread()
	list := f.New(i, k.listClass)
	tmp := th.PushFrame(1)
	k.rt.SetRef(list, k.listData, tmp.NewRefArray(0, initialListCap))
	th.PopFrame()
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
		// Grow: val may be unreachable but for the caller's Go variable, so
		// root it (and the list) while the bigger array is allocated into
		// a root of its own, until val is stored.
		f := th.PushFrame(3)
		defer th.PopFrame()
		f.SetLocal(0, list)
		f.SetLocal(1, val)
		bigger := f.NewRefArray(2, size*2)
		rt.ArrCopyRefs(bigger, 0, data, 0, size)
		rt.SetRef(list, k.listData, bigger)
		data = bigger
	}
	rt.ArrSetRef(data, size, val)
	rt.SetInt(list, k.listSize, int64(size+1))
}

// ListRemoveAt removes element i, shifting the tail left, and returns the
// removed reference. The result is a Go variable, which no collection sees:
// a caller that keeps the element while another mutator or the pacer may
// collect uses ListRemoveAtInto.
func (k *Kit) ListRemoveAt(list core.Ref, i int) core.Ref {
	return k.listRemove(list, i, core.Frame{}, 0)
}

// ListRemoveAtInto removes element i, storing it into f's local slot before
// the shift unlinks it, so the element is reachable from the list or the
// frame at every instant (DESIGN.md §11).
func (k *Kit) ListRemoveAtInto(f core.Frame, slot int, list core.Ref, i int) {
	k.listRemove(list, i, f, slot)
}

func (k *Kit) listRemove(list core.Ref, i int, f core.Frame, slot int) core.Ref {
	k.checkListIndex(list, i)
	rt := k.rt
	size := int(rt.GetInt(list, k.listSize))
	data := rt.GetRef(list, k.listData)
	out := rt.ArrGetRef(data, i)
	if f != (core.Frame{}) {
		f.SetLocal(slot, out)
	}
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
	at := -1
	var buf [ListBlock]core.Ref
	k.ListEachBlock(list, buf[:], func(from, n int) bool {
		for j, e := range buf[:n] {
			if e == val {
				at = from + j
				return false
			}
		}
		return true
	})
	return at
}

// ListEach calls fn for each element in order, under ListEachBlock's
// contract.
func (k *Kit) ListEach(list core.Ref, fn func(i int, val core.Ref)) {
	var buf [ListBlock]core.Ref
	k.ListEachBlock(list, buf[:], func(from, n int) bool {
		for j, e := range buf[:n] {
			fn(from+j, e)
		}
		return true
	})
}

// ListEachBlock reads the list's elements in order into buf, len(buf) at a
// time, and calls fn(from, n) after each read: buf[:n] then holds elements
// [from, from+n). It stops when fn returns false. buf must not be empty; the
// caller owns it, so a caller's closure that reads it keeps it on the stack.
//
// fn must not structurally modify the list it is iterating — no ListAdd,
// ListRemoveAt or ListClear on it — and ListEachBlock does not detect it if
// fn does: the element count and backing array are read once, before the
// first call. Each block is read before fn sees it, so a ListSet by fn on an
// element further along the same block is not seen by this iteration. fn may
// allocate, collect and modify other lists freely: a buffered element is an
// unrooted Go local, as every ArrGetRef result is, but it is also still an
// element of the list, and objects do not move.
func (k *Kit) ListEachBlock(list core.Ref, buf []core.Ref, fn func(from, n int) bool) {
	if len(buf) == 0 {
		panic("collections: ListEachBlock with an empty buffer")
	}
	rt := k.rt
	size := int(rt.GetInt(list, k.listSize))
	data := rt.GetRef(list, k.listData)
	for from := 0; from < size; from += len(buf) {
		if n := rt.ArrReadRefs(data, from, buf[:min(len(buf), size-from)]); !fn(from, n) {
			return
		}
	}
}

func (k *Kit) checkListIndex(list core.Ref, i int) {
	if n := int(k.rt.GetInt(list, k.listSize)); i < 0 || i >= n {
		panic(&core.IndexError{Index: i, Len: n})
	}
}
