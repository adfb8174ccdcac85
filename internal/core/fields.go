package core

import "repro/internal/vmheap"

// Field and array accessors. On a runtime with incremental collections
// (rt.pacer != nil) reference stores go through the snapshot-at-beginning
// barrier (storeRef): a no-op unless a cycle is active, in which case the
// first store into a not-yet-scanned object scans its snapshot references
// before they can be overwritten. On a stop-the-world runtime a reference
// store is a check and a word store.
//
// Locking. Each accessor is one body: while the runtime has a single mutator
// (Runtime.mutators) it runs with no lock; afterwards it runs under rt.mu —
// taken inline, because a call there costs these paths 5 % — or, under
// SetDebugChecks, behind lockMu's single-mutator contract check, which leaves
// rt.mu held the same way.
//
// Field offsets come from Class.MustFieldIndex; workload code resolves them
// once at setup and uses the integer offsets on the hot paths, the way a
// managed runtime compiles field accesses to fixed offsets.

// storeRef stores val into the checked reference slot of obj, behind the
// snapshot barrier when the runtime has one.
func (rt *Runtime) storeRef(obj Ref, slot uint32, val Ref) {
	if rt.pacer != nil {
		rt.collector.SnapshotBarrier(obj)
	}
	rt.heap.SetSlotRef(slot, val)
}

// GetRef reads the reference field at word offset off of obj.
func (rt *Runtime) GetRef(obj Ref, off uint16) Ref {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkField(obj, off)
	return rt.heap.RefAt(obj, uint32(off))
}

// SetRef stores a reference into the field at word offset off of obj.
func (rt *Runtime) SetRef(obj Ref, off uint16, val Ref) {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkField(obj, off)
	rt.storeRef(obj, rt.heap.FieldSlotIndex(obj, uint32(off)), val)
}

// GetData reads the raw data field at word offset off of obj.
func (rt *Runtime) GetData(obj Ref, off uint16) uint64 {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkField(obj, off)
	return rt.heap.Word(obj, uint32(off))
}

// SetData stores a raw word into the field at word offset off of obj.
func (rt *Runtime) SetData(obj Ref, off uint16, v uint64) {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkField(obj, off)
	rt.heap.SetWord(obj, uint32(off), v)
}

// GetInt reads a data field as a signed integer.
func (rt *Runtime) GetInt(obj Ref, off uint16) int64 {
	return int64(rt.GetData(obj, off))
}

// SetInt stores a signed integer into a data field.
func (rt *Runtime) SetInt(obj Ref, off uint16, v int64) {
	rt.SetData(obj, off, uint64(v))
}

// ArrLen returns the element count of the array at arr.
func (rt *Runtime) ArrLen(arr Ref) int {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	if torture {
		rt.checkPoison(arr)
	}
	return int(rt.heap.ArrayLen(arr))
}

// ArrGetRef reads element i of a reference array.
func (rt *Runtime) ArrGetRef(arr Ref, i int) Ref {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkIndex(arr, i)
	return Ref(rt.heap.ArrayWord(arr, uint32(i)))
}

// ArrSetRef stores a reference into element i of a reference array.
func (rt *Runtime) ArrSetRef(arr Ref, i int, val Ref) {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkIndex(arr, i)
	rt.storeRef(arr, rt.heap.ArraySlotIndex(arr, uint32(i)), val)
}

// ArrGetData reads element i of a data array.
func (rt *Runtime) ArrGetData(arr Ref, i int) uint64 {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkIndex(arr, i)
	return rt.heap.ArrayWord(arr, uint32(i))
}

// ArrSetData stores a word into element i of a data array.
func (rt *Runtime) ArrSetData(arr Ref, i int, v uint64) {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkIndex(arr, i)
	rt.heap.SetArrayWord(arr, uint32(i), v)
}

// Range accessors: a block of array elements moved or read, or one data
// field read from a block of objects, under one lock hold, one bounds check
// per range and one barrier per destination reference array, where the
// per-element accessors pay all three per element (what System.arraycopy is
// to a Java loop of array stores).

// ArrCopyRefs moves n elements from index si of the reference array src to
// index di of the reference array dst, as memmove does: src and dst may be
// one array and the ranges may overlap in either direction. It panics before
// the first element moves — with a FieldError unless both operands are
// reference arrays, with an IndexError when n is negative or either range
// runs past its array's end. n == 0 stores nothing and runs no barrier.
func (rt *Runtime) ArrCopyRefs(dst Ref, di int, src Ref, si int, n int) {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkRange(vmheap.KindRefArray, dst, di, n)
	rt.checkRange(vmheap.KindRefArray, src, si, n)
	if n == 0 {
		return
	}
	// src is only read, so its snapshot values stay in place for the marker;
	// dst's are scanned here, once, before any is overwritten: the barrier
	// is object-granular, so one call covers every store into dst.
	if rt.pacer != nil {
		rt.collector.SnapshotBarrier(dst)
	}
	rt.heap.CopyArrayWords(dst, uint32(di), src, uint32(si), uint32(n))
}

// ArrReadRefs copies elements of the reference array arr, from index from
// on, into buf, and returns how many it copied: len(buf) or the rest of the
// array, whichever is shorter. It panics with a FieldError unless arr is a
// reference array and with an IndexError unless 0 <= from <= ArrLen(arr).
// The copied references are Go locals the collector does not see, exactly
// like an ArrGetRef result.
func (rt *Runtime) ArrReadRefs(arr Ref, from int, buf []Ref) int {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkRange(vmheap.KindRefArray, arr, from, 0)
	n := min(len(buf), int(rt.heap.ArrayLen(arr))-from)
	for j := range buf[:n] {
		buf[j] = Ref(rt.heap.ArrayWord(arr, uint32(from+j)))
	}
	return n
}

// ArrCopyData is ArrCopyRefs for data arrays: it moves n words from index si
// of src to index di of dst, memmove-style, and panics before the first word
// moves with a FieldError unless both operands are data arrays and with an
// IndexError when n is negative or either range runs past its array's end.
// Data words hold no references, so no barrier runs.
func (rt *Runtime) ArrCopyData(dst Ref, di int, src Ref, si int, n int) {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkRange(vmheap.KindDataArray, dst, di, n)
	rt.checkRange(vmheap.KindDataArray, src, si, n)
	rt.heap.CopyArrayWords(dst, uint32(di), src, uint32(si), uint32(n))
}

// ArrReadData is ArrReadRefs for data arrays: it copies words of arr, from
// index from on, into buf and returns how many it copied, len(buf) or the
// rest of the array, whichever is shorter. It panics with a FieldError unless
// arr is a data array and with an IndexError unless 0 <= from <= ArrLen(arr).
func (rt *Runtime) ArrReadData(arr Ref, from int, buf []uint64) int {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	rt.checkRange(vmheap.KindDataArray, arr, from, 0)
	n := min(len(buf), int(rt.heap.ArrayLen(arr))-from)
	for j := range buf[:n] {
		buf[j] = rt.heap.ArrayWord(arr, uint32(from+j))
	}
	return n
}

// GatherData reads the data field at word offset off of each object in objs
// into out[i] — GetData over a block of objects under one lock hold — and
// panics with GetData's FieldError at the first object that is not an
// instance with that field; out must be at least as long as objs. A read
// runs no barrier, and an empty objs reads nothing.
func (rt *Runtime) GatherData(objs []Ref, off uint16, out []uint64) {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockMu()()
	}
	out = out[:len(objs)]
	for i, obj := range objs {
		rt.checkField(obj, off)
		out[i] = rt.heap.Word(obj, uint32(off))
	}
}

// checkRange panics unless arr is an array of the given kind (FieldError: a
// Nil, scalar or other-kind operand — word 0 of the arena reads as a scalar
// header) and elements [i, i+n) lie inside it (IndexError, reporting the
// bound that does not: i, else the range's end).
func (rt *Runtime) checkRange(kind vmheap.Kind, arr Ref, i, n int) {
	if torture {
		rt.checkPoison(arr)
	}
	if rt.heap.KindOf(arr) != kind {
		panic(&FieldError{Obj: arr})
	}
	size := int(rt.heap.ArrayLen(arr))
	if i < 0 || i > size {
		panic(&IndexError{Index: i, Len: size})
	}
	if n < 0 || n > size-i {
		panic(&IndexError{Index: i + n, Len: size})
	}
}

// checkIndex panics with an IndexError on out-of-bounds array access — the
// managed runtime's bounds check.
func (rt *Runtime) checkIndex(arr Ref, i int) {
	if torture {
		rt.checkPoison(arr)
	}
	if n := int(rt.heap.ArrayLen(arr)); i < 0 || i >= n {
		panic(&IndexError{Index: i, Len: n})
	}
}

// checkField panics with a FieldError unless obj is a class instance and
// off addresses one of its field words — the field accessors' counterpart
// of checkIndex. Without it a field access through a mistyped reference
// (an array, say) silently reads or overwrites another object's header or
// an array's length word, corrupting the heap in a way that only surfaces
// collections later.
func (rt *Runtime) checkField(obj Ref, off uint16) {
	if torture {
		rt.checkPoison(obj)
	}
	hd := rt.heap.Header(obj)
	if vmheap.DecodeKind(hd) != vmheap.KindScalar || off == 0 ||
		uint32(off) > rt.reg.ByID(vmheap.DecodeClassID(hd)).FieldWords {
		panic(&FieldError{Obj: obj, Off: off})
	}
}

// IndexError is the panic value for out-of-bounds array accesses.
type IndexError struct {
	Index, Len int
}

// Error implements the error interface.
func (e *IndexError) Error() string {
	return "core: array index out of range"
}

// FieldError is the panic value for a field access on a non-instance object
// or at an offset outside the instance's fields, and for a range access
// (ArrCopyRefs, ArrReadRefs, ArrCopyData, ArrReadData; Off is 0) on anything
// but an array of the accessor's kind.
type FieldError struct {
	Obj Ref
	Off uint16
}

// Error implements the error interface.
func (e *FieldError) Error() string {
	return "core: access outside an instance's fields or through a reference of the wrong kind"
}
