package core

import "repro/internal/vmheap"

// Field and array accessors. Reference stores go through whichever of the
// collector's write barriers the runtime was built with (storeRef): the
// generational barrier (remembered-set maintenance) and the
// snapshot-at-beginning barrier (a no-op unless an incremental collection
// cycle is active, in which case the first store into a not-yet-scanned
// object scans its snapshot references before they can be overwritten). A
// stop-the-world mark-sweep runtime has neither, and its reference store is a
// check and a word store.
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
// barriers this runtime's collector needs.
func (rt *Runtime) storeRef(obj Ref, slot uint32, val Ref) {
	if rt.plainStores {
		rt.heap.SetSlotRef(slot, val)
		return
	}
	rt.storeRefBarriered(obj, slot, val)
}

// storeRefBarriered is a reference store on a generational or incremental
// runtime.
func (rt *Runtime) storeRefBarriered(obj Ref, slot uint32, val Ref) {
	if rt.generational {
		rt.collector.WriteBarrier(obj)
	}
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

// checkIndex panics with an IndexError on out-of-bounds array access — the
// managed runtime's bounds check.
func (rt *Runtime) checkIndex(arr Ref, i int) {
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
// or at an offset outside the instance's fields.
type FieldError struct {
	Obj Ref
	Off uint16
}

// Error implements the error interface.
func (e *FieldError) Error() string {
	return "core: field access outside an instance's fields"
}
