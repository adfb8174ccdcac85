package core

import "repro/internal/vmheap"

// Field and array accessors. Reference stores go through whichever of the
// collector's write barriers the runtime was built with (storeRef): the
// generational barrier (remembered-set maintenance), the
// snapshot-at-beginning barrier (a no-op unless an incremental collection
// cycle is active, in which case the first store into a not-yet-scanned
// object scans its snapshot references before they can be overwritten),
// and — on a zone-sharded runtime — the cross-zone remembered-set barrier
// (remset.go), which reads the slot's old value before the store to keep
// the per-zone sets exact. A stop-the-world mark-sweep runtime has none, and
// its reference store is a check and a word store.
//
// Locking. Each accessor is one body. While the runtime has a single
// mutator (Runtime.mutators) it runs with no lock; afterwards it runs under
// rt.mu — taken inline, because a call there costs these paths 5 % — or, on
// a zoned runtime and for the contract check, between lockObj and the unlock
// it returns: zone locks instead (plus rt.mu when whole-heap
// incremental/pacer cycles require it — Runtime.zonedMu):
//
//   - every accessor locks the zone of the object touched;
//   - a reference store that crosses zones extends that, inside its barrier
//     (lockRefStore), to the zones of the new value AND the slot's current
//     value, ascending.
//
// Holding the OLD value's zone lock is what makes concurrent zone
// collection sound: while zone Z is being collected, no mutator can sever
// (or create) a reference into Z, so the references Z's setup phase roots
// through — remembered-set slots included — cannot change until the drain
// completes. Reads of a reference slot use the atomic accessors: a slot
// holding a cross-zone reference can be force-nulled by the target zone's
// collection (assert-dead Force verdicts) with only the target's zone lock
// held.
//
// Field offsets come from Class.MustFieldIndex; workload code resolves them
// once at setup and uses the integer offsets on the hot paths, the way a
// managed runtime compiles field accesses to fixed offsets.

// zoneLockSet is the ascending set of zone locks a cross-zone reference
// store holds (at most three: object, old value, new value — duplicates
// merged).
type zoneLockSet struct {
	idx [3]int
	n   int
}

// add inserts zone zi keeping idx sorted ascending. Must not be called on a
// set whose locks are held.
func (s *zoneLockSet) add(zi int) {
	for i := 0; i < s.n; i++ {
		if s.idx[i] == zi {
			return
		}
	}
	s.idx[s.n] = zi
	s.n++
	for i := s.n - 1; i > 0 && s.idx[i] < s.idx[i-1]; i-- {
		s.idx[i], s.idx[i-1] = s.idx[i-1], s.idx[i]
	}
}

// lockZoneSet acquires the set's zone locks in ascending order, then rt.mu
// if the configuration requires it — for a one-zone set, what lockZone does.
func (rt *Runtime) lockZoneSet(s *zoneLockSet) {
	for i := 0; i < s.n; i++ {
		rt.zlocks[s.idx[i]].Lock()
	}
	if rt.zonedMu {
		rt.mu.Lock()
	}
}

// unlockZoneSet releases what lockZoneSet acquired, keeping zone keep's
// lock and rt.mu when keep >= 0.
func (rt *Runtime) unlockZoneSet(s *zoneLockSet, keep int) {
	if rt.zonedMu && keep < 0 {
		rt.mu.Unlock()
	}
	for i := s.n - 1; i >= 0; i-- {
		if s.idx[i] != keep {
			rt.zlocks[s.idx[i]].Unlock()
		}
	}
}

// lockRefStore is the zoned store protocol: on entry the caller's lockObj
// holds obj's zone, which covers a store that stays inside it; on return s
// also covers the zones of val and of the slot's current value, which is
// returned. Zone locks are only ever taken in ascending order, so growing
// the set means dropping it and taking the larger one — and the slot can
// change while nothing is held (another mutator or a force-null may write
// it), so it is re-read after every acquisition until its zone is covered.
// The set only grows, so the loop terminates. The caller releases the
// additions with unlockZoneSet(s, obj's zone).
func (rt *Runtime) lockRefStore(s *zoneLockSet, obj, val Ref, slot uint32) Ref {
	s.add(rt.heap.ZoneIndexOf(obj))
	want := *s
	if val != Nil {
		want.add(rt.heap.ZoneIndexOf(val))
	}
	for {
		old := rt.heap.SlotRefAtomic(slot)
		if old != Nil {
			want.add(rt.heap.ZoneIndexOf(old))
		}
		if want.n == s.n {
			return old
		}
		rt.unlockZoneSet(s, -1)
		*s = want
		rt.lockZoneSet(s)
	}
}

// storeRef stores val into the checked reference slot of obj, behind the
// barriers this runtime's collector needs.
func (rt *Runtime) storeRef(obj Ref, slot uint32, val Ref) {
	if rt.plainStores {
		rt.heap.SetSlotRef(slot, val)
		return
	}
	rt.storeRefBarriered(obj, slot, val)
}

// storeRefBarriered is a reference store on a generational, incremental or
// zoned runtime. The zoned protocol comes first because it can drop and
// retake locks; the barriers and the store must not be separated. With one
// mutator (checked or not) there is no zone collection to exclude and the
// protocol is skipped.
func (rt *Runtime) storeRefBarriered(obj Ref, slot uint32, val Ref) {
	var old Ref
	if rt.mutators.Load() == manyMutatorsZoned {
		var s zoneLockSet
		old = rt.lockRefStore(&s, obj, val, slot)
		defer rt.unlockZoneSet(&s, rt.heap.ZoneIndexOf(obj))
	} else if rt.remsets != nil {
		old = rt.heap.SlotRefAtomic(slot)
	}
	if rt.generational {
		rt.collector.WriteBarrier(obj)
	}
	if rt.pacer != nil {
		rt.collector.SnapshotBarrier(obj)
	}
	if rt.remsets != nil {
		rt.remsets.recordStore(obj, slot, old, val)
	}
	rt.heap.SetSlotRef(slot, val)
}

// GetRef reads the reference field at word offset off of obj.
func (rt *Runtime) GetRef(obj Ref, off uint16) Ref {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockObj(obj)()
	}
	rt.checkField(obj, off)
	return rt.heap.RefAtAtomic(obj, uint32(off))
}

// SetRef stores a reference into the field at word offset off of obj.
func (rt *Runtime) SetRef(obj Ref, off uint16, val Ref) {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockObj(obj)()
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
		defer rt.lockObj(obj)()
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
		defer rt.lockObj(obj)()
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
		defer rt.lockObj(arr)()
	}
	return int(rt.heap.ArrayLen(arr))
}

// ArrGetRef reads element i of a reference array.
func (rt *Runtime) ArrGetRef(arr Ref, i int) Ref {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockObj(arr)()
	}
	rt.checkIndex(arr, i)
	return Ref(rt.heap.ArrayWordAtomic(arr, uint32(i)))
}

// ArrSetRef stores a reference into element i of a reference array.
func (rt *Runtime) ArrSetRef(arr Ref, i int, val Ref) {
	if m := rt.mutators.Load(); m == manyMutators {
		rt.mu.Lock()
		defer rt.mu.Unlock()
	} else if m != oneMutator {
		defer rt.lockObj(arr)()
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
		defer rt.lockObj(arr)()
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
		defer rt.lockObj(arr)()
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
