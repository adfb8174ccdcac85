package core

// Managed string support: strings are stored as data arrays whose first
// word is the byte length, followed by the bytes packed eight per word.
// This gives the workloads (notably the lusearch text-search engine)
// realistic variable-length payload objects that the collector must parse
// and sweep.

import (
	"repro/internal/classes"
	"repro/internal/vmheap"
)

// NewString allocates a managed copy of s on this thread.
func (t *Thread) NewString(s string) Ref {
	return t.mustAlloc(vmheap.KindDataArray, classes.DataArrayClassID, stringWords(s), nil, s)
}

// NewString allocates a managed copy of s into local slot i (Frame.New): the
// payload is written before the slot is stored, in the same critical section.
func (f *Frame) NewString(i int, s string) Ref {
	return f.t.mustAlloc(vmheap.KindDataArray, classes.DataArrayClassID, stringWords(s), f.f.Slot(i), s)
}

// stringWords is the data-array length that holds s.
func stringWords(s string) uint32 { return uint32(1 + (len(s)+7)/8) }

// writeString fills the fresh data array arr with s. Caller holds the
// allocation's critical section (publish).
func (rt *Runtime) writeString(arr Ref, s string) {
	rt.heap.SetArrayWord(arr, 0, uint64(len(s)))
	// Eight bytes are packed in a local and stored once per payload word.
	for w := uint32(1); len(s) > 0; w++ {
		chunk := s[:min(8, len(s))]
		s = s[len(chunk):]
		var word uint64
		for j := 0; j < len(chunk); j++ {
			word |= uint64(chunk[j]) << (8 * uint(j))
		}
		rt.heap.SetArrayWord(arr, w, word)
	}
}

// StringAt decodes the managed string at r.
func (rt *Runtime) StringAt(r Ref) string {
	if !rt.solo() {
		defer rt.lockMu()()
	}
	if torture {
		rt.checkPoison(r)
	}
	n := int(rt.heap.ArrayWord(r, 0))
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		w := uint32(1 + i/8)
		shift := uint(i%8) * 8
		b[i] = byte(rt.heap.ArrayWord(r, w) >> shift)
	}
	return string(b)
}

// StringLen returns the byte length of the managed string at r without
// decoding it.
func (rt *Runtime) StringLen(r Ref) int {
	if !rt.solo() {
		defer rt.lockMu()()
	}
	if torture {
		rt.checkPoison(r)
	}
	return int(rt.heap.ArrayWord(r, 0))
}
