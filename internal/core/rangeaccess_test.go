package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/vmheap"
)

// TestRangeAccessors is the contract table of ArrCopyRefs and ArrReadRefs in
// every locking regime: what moves, in both overlap directions; what a bad
// operand or range panics with, before the first word is written and with no
// lock left held.
func TestRangeAccessors(t *testing.T) {
	eachRegime(t, func(t *testing.T, rt *Runtime) {
		node := rt.DefineClass("RNode", DataField("id"))
		th := rt.MainThread()
		const size = 6
		// f roots the operands and the elements e[1..size]; a[i] == e[i+1].
		f := th.PushFrame(4 + size)
		var e [size + 1]Ref
		for i := 1; i <= size; i++ {
			f.New(3+i, node)
			e[i] = f.Local(3 + i)
		}
		f.NewRefArray(0, size)
		f.NewRefArray(1, size)
		f.NewDataArray(2, size)
		f.New(3, node)
		a, b, data, scalar := f.Local(0), f.Local(1), f.Local(2), f.Local(3)
		elems := func(arr Ref) []int {
			out := make([]int, size)
			for i := range out {
				for id, r := range e {
					if r == rt.ArrGetRef(arr, i) {
						out[i] = id
					}
				}
			}
			return out
		}
		intact := []int{1, 2, 3, 4, 5, 6} // a as reset leaves it
		reset := func() {
			for i := 0; i < size; i++ {
				rt.ArrSetRef(a, i, e[i+1])
				rt.ArrSetRef(b, i, Nil)
			}
		}

		for _, c := range []struct {
			name    string
			dst     Ref
			di      int
			src     Ref
			si, n   int
			wantDst []int
		}{
			{name: "between arrays", dst: b, di: 1, src: a, si: 2, n: 3, wantDst: []int{0, 3, 4, 5, 0, 0}},
			{name: "whole array", dst: b, src: a, n: size, wantDst: []int{1, 2, 3, 4, 5, 6}},
			{name: "shift left (ListRemoveAt)", dst: a, di: 1, src: a, si: 2, n: 4, wantDst: []int{1, 3, 4, 5, 6, 6}},
			{name: "shift right", dst: a, di: 2, src: a, si: 1, n: 4, wantDst: []int{1, 2, 2, 3, 4, 5}},
			{name: "onto itself", dst: a, di: 1, src: a, si: 1, n: 5, wantDst: []int{1, 2, 3, 4, 5, 6}},
			{name: "empty at the ends", dst: b, di: size, src: a, si: size, n: 0, wantDst: []int{0, 0, 0, 0, 0, 0}},
		} {
			reset()
			rt.ArrCopyRefs(c.dst, c.di, c.src, c.si, c.n)
			if got := elems(c.dst); !reflect.DeepEqual(got, c.wantDst) {
				t.Errorf("%s: dst = %v, want %v", c.name, got, c.wantDst)
			}
			if c.dst != a {
				if got := elems(a); !reflect.DeepEqual(got, intact) {
					t.Errorf("%s: src changed to %v", c.name, got)
				}
			}
		}

		// Every refusal leaves both arrays as reset built them.
		refused := func(name string, wantField bool, call func()) {
			t.Helper()
			reset()
			func() {
				defer func() {
					t.Helper()
					switch r := recover().(type) {
					case *FieldError:
						if !wantField {
							t.Errorf("%s: FieldError, want IndexError", name)
						}
					case *IndexError:
						if wantField {
							t.Errorf("%s: IndexError, want FieldError", name)
						}
					default:
						t.Errorf("%s: recovered %v, want a declared panic", name, r)
					}
				}()
				call()
			}()
			assertUnlocked(t, rt)
			if got := elems(a); !reflect.DeepEqual(got, intact) {
				t.Errorf("%s: a = %v after the refused call", name, got)
			}
			if got := elems(b); !reflect.DeepEqual(got, make([]int, size)) {
				t.Errorf("%s: b = %v after the refused call", name, got)
			}
			if got := rt.ArrGetData(data, 0); got != 0 {
				t.Errorf("%s: the data array was written", name)
			}
		}
		for _, c := range []struct {
			name      string
			dst       Ref
			di        int
			src       Ref
			si, n     int
			wantField bool
		}{
			{name: "negative n", dst: b, src: a, n: -1},
			{name: "negative di", dst: b, di: -1, src: a, n: 1},
			{name: "negative si", dst: b, src: a, si: -1, n: 1},
			{name: "past dst's end", dst: b, di: 4, src: a, n: 3},
			{name: "past src's end", dst: b, src: a, si: 4, n: 3},
			{name: "di past the end, n 0", dst: b, di: size + 1, src: a},
			{name: "n overflows int", dst: b, di: 1, src: a, si: 1, n: int(^uint(0) >> 1)},
			{name: "scalar dst", dst: scalar, src: a, n: 1, wantField: true},
			{name: "scalar src", dst: b, src: scalar, n: 1, wantField: true},
			{name: "data-array dst", dst: data, src: a, n: 1, wantField: true},
			{name: "data-array src", dst: b, src: data, n: 1, wantField: true},
			{name: "Nil dst", dst: Nil, src: a, n: 1, wantField: true},
			{name: "Nil src", dst: b, src: Nil, n: 1, wantField: true},
			{name: "Nil src, n 0", dst: b, src: Nil, wantField: true},
		} {
			refused("ArrCopyRefs "+c.name, c.wantField, func() {
				rt.ArrCopyRefs(c.dst, c.di, c.src, c.si, c.n)
			})
		}

		reset()
		buf := make([]Ref, size+2)
		for _, c := range []struct {
			from, room int
			want       []Ref
		}{
			{from: 0, room: size + 2, want: e[1:]},
			{from: 2, room: 3, want: e[3:6]},
			{from: 4, room: size, want: e[5:]},
			{from: size, room: 2, want: []Ref{}},
			{from: 1, room: 0, want: []Ref{}},
		} {
			n := rt.ArrReadRefs(a, c.from, buf[:c.room])
			if got := buf[:n]; !reflect.DeepEqual(got, c.want) {
				t.Errorf("ArrReadRefs(from %d, room %d) = %v, want %v", c.from, c.room, got, c.want)
			}
		}
		refused("ArrReadRefs negative from", false, func() { rt.ArrReadRefs(a, -1, buf) })
		refused("ArrReadRefs from past the end", false, func() { rt.ArrReadRefs(a, size+1, buf) })
		refused("ArrReadRefs scalar", true, func() { rt.ArrReadRefs(scalar, 0, buf) })
		refused("ArrReadRefs data array", true, func() { rt.ArrReadRefs(data, 0, buf) })
		refused("ArrReadRefs Nil", true, func() { rt.ArrReadRefs(Nil, 0, buf) })
	})
}

// TestRangeAccessorsData is TestRangeAccessors for the data-array twins,
// ArrCopyData and ArrReadData, in every locking regime: the same moves, the
// same refusals before the first word is written and with no lock left held,
// a reference array now among the operands of the wrong kind; and a move
// inside an open cycle runs no barrier.
func TestRangeAccessorsData(t *testing.T) {
	eachRegime(t, func(t *testing.T, rt *Runtime) {
		node := rt.DefineClass("DNode", DataField("id"))
		th := rt.MainThread()
		const size = 6
		f := th.PushFrame(4)
		f.NewDataArray(0, size)
		f.NewDataArray(1, size)
		f.NewRefArray(2, size)
		f.New(3, node)
		a, b, refs, scalar := f.Local(0), f.Local(1), f.Local(2), f.Local(3)
		words := func(arr Ref) []uint64 {
			out := make([]uint64, size)
			for i := range out {
				out[i] = rt.ArrGetData(arr, i)
			}
			return out
		}
		intact := []uint64{1, 2, 3, 4, 5, 6} // a as reset leaves it
		reset := func() {
			for i := 0; i < size; i++ {
				rt.ArrSetData(a, i, uint64(i+1))
				rt.ArrSetData(b, i, 0)
			}
		}

		for _, c := range []struct {
			name    string
			dst     Ref
			di      int
			src     Ref
			si, n   int
			wantDst []uint64
		}{
			{name: "between arrays", dst: b, di: 1, src: a, si: 2, n: 3, wantDst: []uint64{0, 3, 4, 5, 0, 0}},
			{name: "whole array", dst: b, src: a, n: size, wantDst: []uint64{1, 2, 3, 4, 5, 6}},
			{name: "shift left (a B-tree delete)", dst: a, di: 1, src: a, si: 2, n: 4, wantDst: []uint64{1, 3, 4, 5, 6, 6}},
			{name: "shift right (a B-tree insert)", dst: a, di: 2, src: a, si: 1, n: 4, wantDst: []uint64{1, 2, 2, 3, 4, 5}},
			{name: "onto itself", dst: a, di: 1, src: a, si: 1, n: 5, wantDst: []uint64{1, 2, 3, 4, 5, 6}},
			{name: "empty at the ends", dst: b, di: size, src: a, si: size, n: 0, wantDst: []uint64{0, 0, 0, 0, 0, 0}},
			{name: "empty, shifting", dst: a, di: 1, src: a, si: 0, n: 0, wantDst: []uint64{1, 2, 3, 4, 5, 6}},
		} {
			reset()
			rt.ArrCopyData(c.dst, c.di, c.src, c.si, c.n)
			if got := words(c.dst); !reflect.DeepEqual(got, c.wantDst) {
				t.Errorf("%s: dst = %v, want %v", c.name, got, c.wantDst)
			}
			if c.dst != a {
				if got := words(a); !reflect.DeepEqual(got, intact) {
					t.Errorf("%s: src changed to %v", c.name, got)
				}
			}
		}

		// Every refusal leaves both data arrays as reset built them and the
		// reference array empty.
		refused := func(name string, wantField bool, call func()) {
			t.Helper()
			reset()
			func() {
				defer func() {
					t.Helper()
					switch r := recover().(type) {
					case *FieldError:
						if !wantField {
							t.Errorf("%s: FieldError, want IndexError", name)
						}
					case *IndexError:
						if wantField {
							t.Errorf("%s: IndexError, want FieldError", name)
						}
					default:
						t.Errorf("%s: recovered %v, want a declared panic", name, r)
					}
				}()
				call()
			}()
			assertUnlocked(t, rt)
			if got := words(a); !reflect.DeepEqual(got, intact) {
				t.Errorf("%s: a = %v after the refused call", name, got)
			}
			if got := words(b); !reflect.DeepEqual(got, make([]uint64, size)) {
				t.Errorf("%s: b = %v after the refused call", name, got)
			}
			if got := rt.ArrGetRef(refs, 0); got != Nil {
				t.Errorf("%s: the reference array was written", name)
			}
		}
		for _, c := range []struct {
			name      string
			dst       Ref
			di        int
			src       Ref
			si, n     int
			wantField bool
		}{
			{name: "negative n", dst: b, src: a, n: -1},
			{name: "negative di", dst: b, di: -1, src: a, n: 1},
			{name: "negative si", dst: b, src: a, si: -1, n: 1},
			{name: "past dst's end", dst: b, di: 4, src: a, n: 3},
			{name: "past src's end", dst: b, src: a, si: 4, n: 3},
			{name: "di past the end, n 0", dst: b, di: size + 1, src: a},
			{name: "si past the end, n 0", dst: b, src: a, si: size + 1},
			{name: "n overflows int", dst: b, di: 1, src: a, si: 1, n: int(^uint(0) >> 1)},
			{name: "scalar dst", dst: scalar, src: a, n: 1, wantField: true},
			{name: "scalar src", dst: b, src: scalar, n: 1, wantField: true},
			{name: "reference-array dst", dst: refs, src: a, n: 1, wantField: true},
			{name: "reference-array src", dst: b, src: refs, n: 1, wantField: true},
			{name: "Nil dst", dst: Nil, src: a, n: 1, wantField: true},
			{name: "Nil src", dst: b, src: Nil, n: 1, wantField: true},
			{name: "Nil src, n 0", dst: b, src: Nil, wantField: true},
		} {
			refused("ArrCopyData "+c.name, c.wantField, func() {
				rt.ArrCopyData(c.dst, c.di, c.src, c.si, c.n)
			})
		}

		reset()
		buf := make([]uint64, size+2)
		for _, c := range []struct {
			from, room int
			want       []uint64
		}{
			{from: 0, room: size + 2, want: intact},
			{from: 2, room: 3, want: intact[2:5]},
			{from: 4, room: size, want: intact[4:]},
			{from: size, room: 2, want: []uint64{}},
			{from: 1, room: 0, want: []uint64{}},
		} {
			n := rt.ArrReadData(a, c.from, buf[:c.room])
			if got := buf[:n]; !reflect.DeepEqual(got, c.want) {
				t.Errorf("ArrReadData(from %d, room %d) = %v, want %v", c.from, c.room, got, c.want)
			}
		}
		refused("ArrReadData negative from", false, func() { rt.ArrReadData(a, -1, buf) })
		refused("ArrReadData from past the end", false, func() { rt.ArrReadData(a, size+1, buf) })
		refused("ArrReadData scalar", true, func() { rt.ArrReadData(scalar, 0, buf) })
		refused("ArrReadData reference array", true, func() { rt.ArrReadData(refs, 0, buf) })
		refused("ArrReadData Nil", true, func() { rt.ArrReadData(Nil, 0, buf) })

		if rt.pacer == nil {
			return
		}
		if err := rt.StartGC(); err != nil {
			t.Fatal(err)
		}
		if !rt.GCActive() {
			t.Fatal("no cycle open after StartGC")
		}
		scans := rt.Stats().GC.BarrierScans
		rt.ArrCopyData(a, 0, a, 1, size-1)
		rt.ArrReadData(a, 0, buf)
		if got := rt.Stats().GC.BarrierScans; got != scans {
			t.Errorf("data moves in an open cycle ran the barrier: %d scans, was %d", got, scans)
		}
		if err := rt.FinishGC(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGatherData is GatherData's contract in every locking regime and under
// the concurrent collector: it reads what GetData reads, object by object, and
// writes nothing past len(objs); an empty block reads nothing; a bad object
// panics with the FieldError GetData raises for it — the first bad one — and
// leaves no lock held; and a read inside an open cycle runs no barrier.
func TestGatherData(t *testing.T) {
	eachRegime(t, testGatherData)
	t.Run("concurrent", func(t *testing.T) {
		rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure, ConcurrentGC: true})
		testGatherData(t, rt)
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func testGatherData(t *testing.T, rt *Runtime) {
	node := rt.DefineClass("GNode", RefField("next"), DataField("a"), DataField("b"))
	a, b := node.MustFieldIndex("a"), node.MustFieldIndex("b")
	th := rt.MainThread()
	const n = 10
	f := th.PushFrame(n + 1)
	objs := make([]Ref, n)
	for i := range objs {
		f.New(i, node)
		objs[i] = f.Local(i)
		rt.SetData(objs[i], a, uint64(3*i+1))
		rt.SetData(objs[i], b, ^uint64(i))
	}
	f.NewRefArray(n, 2)
	arr := f.Local(n)

	const untouched = 0xdead
	out := make([]uint64, n+2)
	fill := func() {
		for i := range out {
			out[i] = untouched
		}
	}
	gather := func(off uint16) {
		t.Helper()
		fill()
		rt.GatherData(objs, off, out)
		for i, obj := range objs {
			if want := rt.GetData(obj, off); out[i] != want {
				t.Errorf("offset %d: out[%d] = %#x, GetData reads %#x", off, i, out[i], want)
			}
		}
		if out[n] != untouched || out[n+1] != untouched {
			t.Errorf("offset %d: wrote past len(objs): %#x", off, out[n:])
		}
	}
	gather(a)
	gather(b)

	fill()
	rt.GatherData(nil, a, out)
	rt.GatherData(objs[:0], a, nil)
	if out[0] != untouched {
		t.Errorf("an empty block wrote out[0] = %#x", out[0])
	}

	// getDataPanic is what GetData raises on obj at off.
	getDataPanic := func(obj Ref, off uint16) (r any) {
		defer func() { r = recover() }()
		rt.GetData(obj, off)
		return nil
	}
	for _, c := range []struct {
		name string
		objs []Ref
		off  uint16
		bad  Ref
	}{
		{name: "Nil", objs: []Ref{objs[0], Nil, arr}, off: a, bad: Nil},
		{name: "array", objs: []Ref{objs[0], objs[1], arr, Nil}, off: a, bad: arr},
		{name: "offset 0", objs: objs, off: 0, bad: objs[0]},
		{name: "past the fields", objs: objs, off: uint16(node.FieldWords) + 1, bad: objs[0]},
	} {
		want := getDataPanic(c.bad, c.off)
		if _, ok := want.(*FieldError); !ok {
			t.Fatalf("%s: GetData raised %v, want a FieldError", c.name, want)
		}
		func() {
			defer func() {
				if r := recover(); !reflect.DeepEqual(r, want) {
					t.Errorf("%s: GatherData raised %v, want %v", c.name, r, want)
				}
			}()
			rt.GatherData(c.objs, c.off, out)
		}()
		// Not assertUnlocked: the concurrent collector's goroutine takes
		// rt.mu too, so a held lock is only a leak if it is never released.
		released := make(chan struct{})
		go func() {
			rt.mu.Lock()
			rt.mu.Unlock()
			close(released)
		}()
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: rt.mu is still held", c.name)
		}
	}

	if rt.pacer == nil {
		return
	}
	if err := rt.StartGC(); err != nil {
		t.Fatal(err)
	}
	if !rt.GCActive() {
		t.Fatal("no cycle open after StartGC")
	}
	scans := rt.Stats().GC.BarrierScans
	gather(a)
	if got := rt.Stats().GC.BarrierScans; got != scans {
		t.Errorf("GatherData in an open cycle ran the barrier: %d scans, was %d", got, scans)
	}
	if err := rt.FinishGC(); err != nil {
		t.Fatal(err)
	}
}

// TestArrCopyRefsSnapshotBarrier: an n-element move inside an open cycle
// scans its destination once — not once per element — and a second move into
// the same array not at all; the element the move shifts out of a
// not-yet-scanned array survives that cycle and is reported by it, as the
// stop-the-world collection at the same point reports it; n == 0 runs no
// barrier.
func TestArrCopyRefsSnapshotBarrier(t *testing.T) {
	const n = 8
	// run returns the violations of the cycle the moves ran in, and how many
	// nodes were allocated after it and after one more collection.
	run := func(budget int) (verdicts []string, after, later int) {
		rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure, IncrementalBudget: budget})
		node := rt.DefineClass("SNode", DataField("id"))
		th := rt.MainThread()
		f := th.PushFrame(2)
		f.NewRefArray(0, n)
		arr := f.Local(0)
		for i := 0; i < n; i++ {
			f.New(1, node)
			rt.ArrSetRef(arr, i, f.Local(1))
		}
		f.SetLocal(1, Nil)
		if err := rt.AssertDead(rt.ArrGetRef(arr, 0)); err != nil {
			t.Fatal(err)
		}
		if err := rt.StartGC(); err != nil {
			t.Fatal(err)
		}
		if budget > 0 {
			if !rt.GCActive() {
				t.Fatal("no cycle open after StartGC")
			}
			rt.ArrCopyRefs(arr, 0, arr, 0, 0)
			if s := rt.Stats().GC; s.BarrierScans != 0 || rt.HeaderFlags(arr)&vmheap.FlagScanned != 0 {
				t.Errorf("an empty move ran the barrier: %d scans", s.BarrierScans)
			}
		}
		rt.ArrCopyRefs(arr, 0, arr, 1, n-1) // drops the asserted-dead element 0
		if s := rt.Stats().GC; budget > 0 && (s.BarrierScans != 1 || s.BarrierRefs != n) {
			t.Errorf("a %d-element move: %d barrier scans over %d refs, want 1 over %d", n-1, s.BarrierScans, s.BarrierRefs, n)
		}
		rt.ArrCopyRefs(arr, 0, arr, 1, n-2)
		if s := rt.Stats().GC; budget > 0 && s.BarrierScans != 1 {
			t.Errorf("a second move into the scanned array: %d barrier scans, want still 1", s.BarrierScans)
		}
		if err := rt.FinishGC(); err != nil {
			t.Fatal(err)
		}
		for _, v := range rt.Violations() {
			verdicts = append(verdicts, v.Format())
		}
		after = rt.AllocatedInstanceCount(node)
		if err := rt.GC(); err != nil {
			t.Fatal(err)
		}
		if errs := rt.VerifyHeap(); len(errs) != 0 {
			t.Fatalf("heap corrupt: %v", errs[0])
		}
		return verdicts, after, rt.AllocatedInstanceCount(node)
	}
	stwV, stwAfter, stwLater := run(0)
	incV, incAfter, incLater := run(1)
	if len(incV) != 1 || !reflect.DeepEqual(incV, stwV) {
		t.Errorf("verdicts differ:\nstw: %v\ninc: %v", stwV, incV)
	}
	// Both collections saw all n nodes reachable; the two shifts left n-2.
	if stwAfter != n || incAfter != n || stwLater != n-2 || incLater != n-2 {
		t.Errorf("nodes allocated after the cycle / after the next: stw %d/%d, inc %d/%d, want %d/%d",
			stwAfter, stwLater, incAfter, incLater, n, n-2)
	}
}
