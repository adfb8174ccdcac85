package heapdump

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/jbb"
)

func TestRoundtripSimpleGraph(t *testing.T) {
	rt := core.New(core.Config{HeapWords: 1 << 13, Mode: core.Infrastructure})
	node := rt.DefineClass("Node", core.RefField("next"), core.DataField("val"))
	next := node.MustFieldIndex("next")
	val := node.MustFieldIndex("val")
	th := rt.MainThread()

	// A cycle with payloads, plus a string and an array.
	a := th.New(node)
	b := th.New(node)
	rt.SetRef(a, next, b)
	rt.SetRef(b, next, a)
	rt.SetInt(a, val, 41)
	rt.SetInt(b, val, 42)
	rt.AddGlobal("head").Set(a)

	s := th.NewString("snapshot payload")
	rt.AddGlobal("s").Set(s)
	arr := th.NewRefArray(3)
	rt.ArrSetRef(arr, 1, b)
	rt.AddGlobal("arr").Set(arr)

	rt.GC()

	var buf bytes.Buffer
	if err := Write(&buf, rt); err != nil {
		t.Fatal(err)
	}
	rt2, err := Read(&buf, 1<<13)
	if err != nil {
		t.Fatal(err)
	}

	// Globals restored by name; graph shape preserved.
	var head2, s2, arr2 core.Ref
	rt2.EachGlobal(func(name string, r core.Ref) {
		switch name {
		case "head":
			head2 = r
		case "s":
			s2 = r
		case "arr":
			arr2 = r
		}
	})
	if head2 == core.Nil || s2 == core.Nil || arr2 == core.Nil {
		t.Fatal("globals not restored")
	}
	node2 := rt2.ClassOf(head2)
	if node2.Name != "Node" {
		t.Fatalf("class = %q", node2.Name)
	}
	b2 := rt2.GetRef(head2, node2.MustFieldIndex("next"))
	if rt2.GetInt(head2, node2.MustFieldIndex("val")) != 41 ||
		rt2.GetInt(b2, node2.MustFieldIndex("val")) != 42 {
		t.Error("field values lost")
	}
	// The cycle survives.
	if rt2.GetRef(b2, node2.MustFieldIndex("next")) != head2 {
		t.Error("cycle broken")
	}
	if got := rt2.StringAt(s2); got != "snapshot payload" {
		t.Errorf("string = %q", got)
	}
	if rt2.ArrGetRef(arr2, 1) != b2 {
		t.Error("array element remap wrong")
	}
	if rt2.ArrGetRef(arr2, 0) != core.Nil {
		t.Error("nil element not preserved")
	}

	// The restored heap is a healthy heap.
	if errs := rt2.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("verify: %v", errs[0])
	}
	// A loaded runtime saves and loads again.
	buf.Reset()
	if err := Write(&buf, rt2); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf, 1<<13); err != nil {
		t.Fatalf("reload: %v", err)
	}

	// And collectable: after dropping globals, everything dies.
	rt2.EachGlobal(func(name string, r core.Ref) {})
	if err := rt2.GC(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundtripJBBHeap(t *testing.T) {
	rt := core.New(core.Config{HeapWords: 1 << 19, Mode: core.Infrastructure})
	b := jbb.New(rt, jbb.Config{ClearLastOrder: true})
	b.RunTransactions(300)
	rt.GC()

	census := func(r *core.Runtime) map[string]int {
		out := map[string]int{}
		for _, o := range r.LiveSet() {
			out[o.Class]++
		}
		return out
	}
	want := census(rt)

	var buf bytes.Buffer
	if err := Write(&buf, rt); err != nil {
		t.Fatal(err)
	}
	rt2, err := Read(&buf, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	got := census(rt2)
	for class, n := range want {
		if got[class] != n {
			t.Errorf("class %s: %d objects, want %d", class, got[class], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("class sets differ: %d vs %d", len(got), len(want))
	}
	if errs := rt2.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("verify: %v", errs[0])
	}
}

func TestSubclassesSurviveRoundtrip(t *testing.T) {
	rt := core.New(core.Config{HeapWords: 1 << 12, Mode: core.Infrastructure})
	base := rt.DefineClass("Entity", core.RefField("tag"))
	sub := rt.DefineSubclass("Order", base, core.DataField("id"))
	th := rt.MainThread()
	o := th.New(sub)
	rt.SetInt(o, sub.MustFieldIndex("id"), 7)
	rt.AddGlobal("o").Set(o)

	var buf bytes.Buffer
	if err := Write(&buf, rt); err != nil {
		t.Fatal(err)
	}
	rt2, err := Read(&buf, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	var o2 core.Ref
	rt2.EachGlobal(func(name string, r core.Ref) {
		if name == "o" {
			o2 = r
		}
	})
	c2 := rt2.ClassOf(o2)
	if c2.Name != "Order" || c2.Super == nil || c2.Super.Name != "Entity" {
		t.Fatalf("class hierarchy lost: %+v", c2)
	}
	if rt2.GetInt(o2, c2.MustFieldIndex("id")) != 7 {
		t.Error("subclass field lost")
	}
}

// wire is a hand-built snapshot: the two built-in class records, then
// classes, globals (all Nil) and objects as given. Every class field is a
// data field, and object i gets ref 2(i+1). numObjects, when nonzero,
// replaces the object count on the wire.
type wire struct {
	classes    []wireClass
	globals    []string
	objects    []wireObject
	numObjects uint64
}

type wireClass struct {
	name   string
	super  uint32 // class id + 1; 0 for none
	fields []string
}

type wireObject struct {
	class uint32
	kind  uint8
	words int
}

func (w wire) bytes() []byte {
	var b bytes.Buffer
	put := func(v any) { binary.Write(&b, binary.LittleEndian, v) }
	str := func(s string) { put(uint16(len(s))); b.WriteString(s) }
	put(magic)
	put(version)
	classes := append([]wireClass{{name: "Object[]"}, {name: "data[]"}}, w.classes...)
	put(uint32(len(classes)))
	for _, c := range classes {
		str(c.name)
		put(c.super)
		put(uint16(len(c.fields)))
		for _, f := range c.fields {
			str(f)
			put(uint8(1))
		}
	}
	put(uint32(len(w.globals)))
	for _, g := range w.globals {
		str(g)
		put(uint32(0))
	}
	n := w.numObjects
	if n == 0 {
		n = uint64(len(w.objects))
	}
	put(n)
	for i, o := range w.objects {
		put(uint32(2 * (i + 1)))
		put(o.class)
		put(o.kind)
		put(uint32(o.words))
		b.Write(make([]byte, 8*o.words))
	}
	return b.Bytes()
}

func TestReadRejectsGarbage(t *testing.T) {
	point := wireClass{name: "Point", fields: []string{"x", "y"}}
	wide := func(name string, super uint32, prefix string) wireClass {
		c := wireClass{name: name, super: super}
		for i := 0; i < 40000; i++ {
			c.fields = append(c.fields, fmt.Sprint(prefix, i))
		}
		return c
	}
	manyArrays := make([]wireObject, 8)
	for i := range manyArrays {
		manyArrays[i] = wireObject{class: 1, kind: kindDataArr, words: 1000}
	}
	rows := []struct {
		name string
		in   []byte
	}{
		{"not-a-snapshot", []byte("not a snapshot")},
		{"empty", nil},
		{"super-out-of-range", wire{classes: []wireClass{point, {name: "P3", super: 99}}}.bytes()},
		{"super-is-self", wire{classes: []wireClass{{name: "A", super: 3}}}.bytes()},
		{"super-is-array", wire{classes: []wireClass{{name: "A", super: 1}}}.bytes()},
		{"class-name-repeats", wire{classes: []wireClass{point, point}}.bytes()},
		{"class-name-is-builtin", wire{classes: []wireClass{{name: "data[]"}}}.bytes()},
		{"field-repeats", wire{classes: []wireClass{{name: "A", fields: []string{"x", "x"}}}}.bytes()},
		{"field-repeats-super", wire{classes: []wireClass{point, {name: "P3", super: 3, fields: []string{"x"}}}}.bytes()},
		{"field-offsets-overflow", wire{classes: []wireClass{wide("A", 0, "a"), wide("B", 3, "b")}}.bytes()},
		{"global-repeats", wire{globals: []string{"g", "g"}}.bytes()},
		{"scalar-too-long", wire{classes: []wireClass{point}, objects: []wireObject{{class: 2, kind: kindScalar, words: 3}}}.bytes()},
		{"scalar-too-short", wire{classes: []wireClass{point}, objects: []wireObject{{class: 2, kind: kindScalar, words: 1}}}.bytes()},
		{"scalar-of-array-class", wire{objects: []wireObject{{class: 0, kind: kindScalar}}}.bytes()},
		{"object-count-beyond-heap", wire{numObjects: 1 << 62}.bytes()},
		{"array-beyond-heap", wire{objects: []wireObject{{class: 1, kind: kindDataArr, words: 5000}}}.bytes()},
		{"objects-beyond-heap", wire{objects: manyArrays}.bytes()},
	}
	ok := wire{
		classes: []wireClass{point, {name: "P3", super: 3, fields: []string{"z"}}},
		globals: []string{"g"},
		objects: []wireObject{{class: 3, kind: kindScalar, words: 3}, {class: 1, kind: kindDataArr, words: 1000}},
	}
	if _, err := Read(bytes.NewReader(ok.bytes()), 1<<12); err != nil {
		t.Fatalf("well-formed snapshot rejected: %v", err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(row.in), 1<<12); err == nil {
				t.Error("accepted")
			}
		})
	}
}
