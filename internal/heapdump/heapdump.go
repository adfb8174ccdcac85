// Package heapdump serializes a managed heap to a compact binary snapshot
// and reconstructs it into a fresh runtime — post-mortem analysis support
// for the deployed setting the paper targets: capture the heap when an
// assertion fires in production, inspect it offline with heapinfo/heapdot.
//
// A snapshot records classes, global roots, and every allocated object
// with its payload. Thread frames are not captured (a snapshot is a heap
// image, not a resumable process); take snapshots right after a collection
// so they contain only live data. Object identities are remapped on load —
// Refs in a loaded runtime differ from the originals, but the graph shape,
// classes, field values and global names are preserved exactly.
package heapdump

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/vmheap"
)

// magic and version identify the snapshot format.
const (
	magic   uint32 = 0x47434144 // "GCAD"
	version uint32 = 1
)

// Object kinds on the wire (mirror vmheap's, pinned for format stability).
const (
	kindScalar   uint8 = 0
	kindRefArray uint8 = 1
	kindDataArr  uint8 = 2
)

// Write serializes rt's classes, globals, and all allocated objects.
func Write(w io.Writer, rt *core.Runtime) error {
	bw := bufio.NewWriter(w)
	put := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }
	putStr := func(s string) error {
		if len(s) > 0xFFFF {
			return fmt.Errorf("heapdump: string too long (%d)", len(s))
		}
		if err := put(uint16(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}

	if err := put(magic); err != nil {
		return err
	}
	if err := put(version); err != nil {
		return err
	}

	// Classes, in ID order (IDs are dense).
	classList := rt.Classes()
	if err := put(uint32(len(classList))); err != nil {
		return err
	}
	for _, c := range classList {
		if err := putStr(c.Name); err != nil {
			return err
		}
		superID := uint32(0)
		if c.Super != nil {
			superID = c.Super.ID + 1
		}
		if err := put(superID); err != nil {
			return err
		}
		// Own fields only: inherited ones are reconstructed via Super.
		own := c.Fields
		if c.Super != nil {
			own = c.Fields[len(c.Super.Fields):]
		}
		if err := put(uint16(len(own))); err != nil {
			return err
		}
		for _, f := range own {
			if err := putStr(f.Name); err != nil {
				return err
			}
			if err := put(uint8(f.Kind)); err != nil {
				return err
			}
		}
	}

	// Globals.
	type global struct {
		name string
		ref  core.Ref
	}
	var globals []global
	rt.EachGlobal(func(name string, r core.Ref) {
		globals = append(globals, global{name, r})
	})
	if err := put(uint32(len(globals))); err != nil {
		return err
	}
	for _, g := range globals {
		if err := putStr(g.name); err != nil {
			return err
		}
		if err := put(uint32(g.ref)); err != nil {
			return err
		}
	}

	// Objects.
	live := rt.LiveSet()
	if err := put(uint64(len(live))); err != nil {
		return err
	}
	for _, o := range live {
		r := o.Ref
		c := rt.ClassOf(r)
		kind := uint8(rt.KindOf(r))
		if err := put(uint32(r)); err != nil {
			return err
		}
		if err := put(c.ID); err != nil {
			return err
		}
		if err := put(kind); err != nil {
			return err
		}
		switch kind {
		case kindScalar:
			if err := put(uint32(c.FieldWords)); err != nil {
				return err
			}
			for off := uint16(1); off <= uint16(c.FieldWords); off++ {
				if err := put(rt.GetData(r, off)); err != nil {
					return err
				}
			}
		default:
			n := rt.ArrLen(r)
			if err := put(uint32(n)); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if err := put(rt.ArrGetData(r, i)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Read reconstructs a snapshot into a fresh Infrastructure-mode runtime
// with the given heap capacity. A snapshot is untrusted input: Read returns
// an error, not a panic, when it is malformed or does not fit the heap.
func Read(r io.Reader, heapWords int) (*core.Runtime, error) {
	br := bufio.NewReader(r)
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	getStr := func() (string, error) {
		var n uint16
		if err := get(&n); err != nil {
			return "", err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	var m, v uint32
	if err := get(&m); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("heapdump: bad magic %#x", m)
	}
	if err := get(&v); err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("heapdump: unsupported version %d", v)
	}

	rt := core.New(core.Config{HeapWords: heapWords, Mode: core.Infrastructure})
	capWords := rt.Stats().Heap.CapacityWords

	// Classes. IDs 0 and 1 are the array pseudo-classes present in every
	// runtime. Counts from the snapshot size no allocation: the slices grow
	// as records are actually read.
	var numClasses uint32
	if err := get(&numClasses); err != nil {
		return nil, err
	}
	builtin := rt.Classes()
	var classes []*core.Class
	names := map[string]bool{}
	for i := uint32(0); i < numClasses; i++ {
		name, err := getStr()
		if err != nil {
			return nil, err
		}
		var superID uint32
		if err := get(&superID); err != nil {
			return nil, err
		}
		var super *core.Class
		if superID != 0 && i >= 2 {
			if superID-1 < 2 || superID-1 >= i {
				return nil, fmt.Errorf("heapdump: class %q: super id %d names no earlier class", name, superID)
			}
			super = classes[superID-1]
		}
		var numFields uint16
		if err := get(&numFields); err != nil {
			return nil, err
		}
		taken := map[string]bool{}
		if super != nil {
			for _, f := range super.Fields {
				taken[f.Name] = true
			}
		}
		if len(taken)+int(numFields) > 1<<16-1 { // field offsets are uint16
			return nil, fmt.Errorf("heapdump: class %q: %d fields", name, len(taken)+int(numFields))
		}
		fields := make([]core.Field, numFields)
		for f := range fields {
			fname, err := getStr()
			if err != nil {
				return nil, err
			}
			var kind uint8
			if err := get(&kind); err != nil {
				return nil, err
			}
			if taken[fname] {
				return nil, fmt.Errorf("heapdump: class %q: duplicate field %q", name, fname)
			}
			taken[fname] = true
			if kind == 0 {
				fields[f] = core.RefField(fname)
			} else {
				fields[f] = core.DataField(fname)
			}
		}
		if i < 2 {
			classes = append(classes, builtin[i])
			names[builtin[i].Name] = true
			continue
		}
		if names[name] {
			return nil, fmt.Errorf("heapdump: class %q defined twice", name)
		}
		names[name] = true
		var c *core.Class
		if super != nil {
			c = rt.DefineSubclass(name, super, fields...)
		} else {
			c = rt.DefineClass(name, fields...)
		}
		if c.ID != i {
			return nil, fmt.Errorf("heapdump: class id drift: %d != %d", c.ID, i)
		}
		classes = append(classes, c)
	}

	// Globals (values patched after objects are rebuilt).
	var numGlobals uint32
	if err := get(&numGlobals); err != nil {
		return nil, err
	}
	type pendingGlobal struct {
		g   *core.Global
		ref core.Ref
	}
	var pendGlobals []pendingGlobal
	globalNames := map[string]bool{}
	for i := uint32(0); i < numGlobals; i++ {
		name, err := getStr()
		if err != nil {
			return nil, err
		}
		var ref uint32
		if err := get(&ref); err != nil {
			return nil, err
		}
		if globalNames[name] {
			return nil, fmt.Errorf("heapdump: global %q defined twice", name)
		}
		globalNames[name] = true
		pendGlobals = append(pendGlobals, pendingGlobal{rt.AddGlobal(name), core.Ref(ref)})
	}

	// Objects: two passes. Read every record, checking that the whole set
	// fits the heap, then allocate everything building the remap table
	// (pinning each new object in a scratch array so interleaved collections
	// cannot reclaim them), then patch reference slots.
	var numObjects uint64
	if err := get(&numObjects); err != nil {
		return nil, err
	}
	// size checks an object of n payload words before anything is sized by
	// n, and returns the words it takes in the heap.
	size := func(kind uint8, n uint64) (uint64, error) {
		if n > capWords {
			return 0, fmt.Errorf("heapdump: object of %d words exceeds the %d-word heap", n, capWords)
		}
		return uint64(vmheap.ObjectWords(vmheap.Kind(kind), uint32(n))), nil
	}
	need, err := size(kindRefArray, numObjects) // the pin array
	if err != nil {
		return nil, err
	}
	type object struct {
		oldRef core.Ref
		class  *core.Class
		kind   uint8
		words  []uint64
	}
	objects := make([]object, numObjects)
	for i := range objects {
		var oldRef, classID, count uint32
		var kind uint8
		if err := get(&oldRef); err != nil {
			return nil, err
		}
		if err := get(&classID); err != nil {
			return nil, err
		}
		if err := get(&kind); err != nil {
			return nil, err
		}
		if err := get(&count); err != nil {
			return nil, err
		}
		if classID >= uint32(len(classes)) {
			return nil, fmt.Errorf("heapdump: object class %d out of range", classID)
		}
		if kind > kindDataArr {
			return nil, fmt.Errorf("heapdump: unknown kind %d", kind)
		}
		words, err := size(kind, uint64(count))
		if err != nil {
			return nil, err
		}
		if c := classes[classID]; kind == kindScalar && classID < 2 {
			return nil, fmt.Errorf("heapdump: scalar object of array class %s", c.Name)
		} else if kind == kindScalar && count != c.FieldWords {
			return nil, fmt.Errorf("heapdump: %s object of %d words, class has %d", c.Name, count, c.FieldWords)
		}
		need += words
		payload := make([]uint64, count)
		for w := range payload {
			if err := get(&payload[w]); err != nil {
				return nil, err
			}
		}
		objects[i] = object{core.Ref(oldRef), classes[classID], kind, payload}
	}
	if need > capWords {
		return nil, fmt.Errorf("heapdump: snapshot needs %d words, the heap holds %d", need, capWords)
	}

	th := rt.MainThread()
	// Pin every rebuilt object through one scratch array, held in a frame,
	// so allocation pressure cannot reclaim earlier ones mid-load.
	frame := th.PushFrame(1)
	pinArr := th.NewRefArray(int(numObjects))
	frame.SetLocal(0, pinArr)

	// Old-ref → new-ref remapping. Valid refs are always even (2-word
	// alignment).
	remap := make(map[core.Ref]core.Ref, len(objects))
	for i, o := range objects {
		if uint32(o.oldRef)&1 != 0 {
			return nil, fmt.Errorf("heapdump: corrupt snapshot ref %d (odd)", o.oldRef)
		}
		var newRef core.Ref
		switch o.kind {
		case kindScalar:
			newRef = th.New(o.class)
		case kindRefArray:
			newRef = th.NewRefArray(len(o.words))
		case kindDataArr:
			newRef = th.NewDataArray(len(o.words))
		}
		rt.ArrSetRef(pinArr, i, newRef)
		remap[o.oldRef] = newRef
	}

	mapRef := func(old uint64) (core.Ref, error) {
		if old == 0 {
			return core.Nil, nil
		}
		if old > uint64(^uint32(0)) {
			return core.Nil, fmt.Errorf("heapdump: dangling snapshot ref %d", old)
		}
		n, ok := remap[core.Ref(old)]
		if !ok {
			return core.Nil, fmt.Errorf("heapdump: dangling snapshot ref %d", old)
		}
		return n, nil
	}

	for _, o := range objects {
		newRef := remap[o.oldRef]
		switch o.kind {
		case kindScalar:
			isRef := map[uint16]bool{}
			for _, off := range o.class.RefOffsets {
				isRef[off] = true
			}
			for w, val := range o.words {
				off := uint16(w + 1)
				if isRef[off] {
					ref, err := mapRef(val)
					if err != nil {
						return nil, err
					}
					rt.SetRef(newRef, off, ref)
				} else {
					rt.SetData(newRef, off, val)
				}
			}
		case kindRefArray:
			for w, val := range o.words {
				ref, err := mapRef(val)
				if err != nil {
					return nil, err
				}
				rt.ArrSetRef(newRef, w, ref)
			}
		case kindDataArr:
			for w, val := range o.words {
				rt.ArrSetData(newRef, w, val)
			}
		}
	}

	for _, pg := range pendGlobals {
		if pg.ref == core.Nil {
			continue
		}
		ref, err := mapRef(uint64(pg.ref))
		if err != nil {
			return nil, err
		}
		pg.g.Set(ref)
	}

	// Drop the scratch pin and collect: the restored globals now root the
	// graph, and the pin array must not appear in censuses of the loaded
	// heap.
	th.PopFrame()
	if err := rt.GC(); err != nil {
		return nil, err
	}
	return rt, nil
}
