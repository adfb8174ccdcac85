// Package heapscript is the one mutator script behind every mode
// differential of the runtime: one op alphabet decoded from bytes, so seeded
// scripts and fuzzers share it; one World that applies a script to a
// core.Runtime and names every allocation by a script id; one shadow model of
// reachability and of the paper's checks; and one comparer whose strictness
// is a Level. A differential is a Pair of configurations, a script and a
// level; Run drives both worlds through the script and compares them at every
// Check op. It is imported only by _test.go files.
package heapscript

import "math/rand"

// Code names one scripted operation. I and J select slots (modulo the
// world's slot count); K selects sizes, fields, offsets and limits.
type Code uint8

const (
	AllocNode       Code = iota // a Node into slot I
	AllocLeaf                   // a Leaf (a Node subclass) into slot I
	AllocBig                    // a Big (four reference fields) into slot I
	AllocRefs                   // a reference array of 1+K%6 elements into slot I
	AllocData                   // a data array of 1+K%16 words into slot I; word 0 written and read back
	AllocString                 // a K%20-byte string, built in a nested frame, into slot I
	Burst                       // 1+K%12 eight-word data arrays, all garbage
	Store                       // slot J into slot I's object: field K%2 (Node), K%4 (Big) or element K%len
	Copy                        // ArrCopyRefs from slot I's array into slot J's: offsets K&7 and K>>3&7, K>>6 shorter than the longest fit
	Clear                       // slot I = nil
	AssertDead                  // slot I
	AssertUnshared              // slot I
	AssertInstances             // Node (K&1 == 0) or Leaf, subclasses counted if K&2, limit K>>2
	AssertOwnedBy               // slot I owns slot J
	StartRegion                 // opens a region bracket while fewer than two are open
	AssertAllDead               // closes the innermost open region bracket
	GC
	StartGC
	GCStep
	FinishGC
	Cycle // StartGC, GCStep until the mark is done, FinishGC
	Poll  // Stats and Metrics
	Close // Runtime.Close
	Check // a comparison point; Run compares the worlds here
)

// Op is one scripted operation.
type Op struct {
	Code    Code
	I, J, K uint8
}

// Decode reads data as 4-byte ops — a byte indexing codes (modulo its
// length), then I, J and K — up to max ops; a trailing partial op is dropped.
func Decode(data []byte, codes []Code, max int) []Op {
	var ops []Op
	for ; len(data) >= 4 && len(ops) < max; data = data[4:] {
		ops = append(ops, Op{codes[int(data[0])%len(codes)], data[1], data[2], data[3]})
	}
	return ops
}

// Random is n ops over codes, decoded from seed's pseudo-random bytes.
func Random(seed int64, n int, codes []Code) []Op {
	data := make([]byte, 4*n)
	rand.New(rand.NewSource(seed)).Read(data)
	return Decode(data, codes, n)
}

// Leafy is the leaf-heavy, ownership shape: Big allocations, and node and
// reference-array allocations with an odd K, become data arrays — objects a
// stop-the-world trace keeps off its worklist — and instance limits become
// ownership pairs.
func Leafy(ops []Op) []Op {
	for n := range ops {
		switch op := &ops[n]; {
		case op.Code == AllocBig, (op.Code == AllocNode || op.Code == AllocRefs) && op.K%2 == 1:
			op.Code = AllocData
		case op.Code == AssertInstances:
			op.Code = AssertOwnedBy
		}
	}
	return ops
}

// OldGen is the generational-hypothesis shape: the first two ops allocate a
// node into slots 0 and 1, which no later allocation or clear names (they
// move two slots up).
func OldGen(ops []Op, slots int) []Op {
	for n := range ops {
		op := &ops[n]
		switch {
		case n < 2:
			*op = Op{Code: AllocNode, I: uint8(n)}
		case op.Code <= AllocString || op.Code == Clear:
			if int(op.I)%slots < 2 {
				op.I += 2
			}
		}
	}
	return ops
}

// Paired keeps StartGC and FinishGC in blocks — a StartGC inside a block or
// a FinishGC outside one becomes a GCStep — and checks after every FinishGC.
func Paired(ops []Op) []Op {
	var out []Op
	open := false
	for _, op := range ops {
		switch {
		case op.Code == StartGC && open, op.Code == FinishGC && !open:
			op.Code = GCStep
		case op.Code == StartGC, op.Code == FinishGC:
			open = !open
		}
		out = append(out, op)
		if op.Code == FinishGC {
			out = append(out, Op{Code: Check})
		}
	}
	return out
}

// After inserts the ops insert after every op whose code is c.
func After(ops []Op, c Code, insert ...Op) []Op {
	var out []Op
	for _, op := range ops {
		out = append(out, op)
		if op.Code == c {
			out = append(out, insert...)
		}
	}
	return out
}

// Rounds splits ops into rounds of per ops and appends tail(r) after round r.
func Rounds(ops []Op, per int, tail func(r int) []Op) []Op {
	var out []Op
	for r := 0; r*per < len(ops); r++ {
		out = append(out, ops[r*per:min(len(ops), (r+1)*per)]...)
		out = append(out, tail(r)...)
	}
	return out
}

// Ops is shorthand for a list of operand-free ops.
func Ops(codes ...Code) []Op {
	out := make([]Op, len(codes))
	for n, c := range codes {
		out[n] = Op{Code: c}
	}
	return out
}
