package heapscript

import (
	"testing"

	"repro/internal/report"
	"repro/internal/vmheap"
)

// TestCompareSeesEveryField feeds the comparer pairs of observations that
// differ in exactly one thing, at every combination of levels, and requires
// a difference exactly where a level compares that thing: no comparison the
// arms rely on is vacuous, and none is stricter than its level says.
func TestCompareSeesEveryField(t *testing.T) {
	base := func() obs {
		o := obs{
			Verdicts: []verdict{{report.Violation{Kind: report.DeadReachable, Cycle: 2, Object: 40, Class: "Node",
				Path: []report.PathElem{{Class: "Object[]", Ref: 20}, {Class: "Node", Ref: 40}}}, 3}},
			Rejects: []string{"op 7: assertions: assert-ownedby: ownee is already an owner"},
			Live:    []obj{{3, 40, "Node", 4}, {1, 20, "Object[]", 4}},
			Free:    []vmheap.FreeChunk{{Ref: 60, Words: 8}},
			Allocs:  5,
		}
		o.Stats.Heap.CapacityWords, o.Stats.GC.Collections, o.Stats.GC.Trace.RefsScanned = 64, 2, 9
		return o
	}
	for _, c := range []struct {
		what     string
		compared func(l Level) bool
		change   func(o *obs)
	}{
		{"one path element's class", allOf(Verdicts, Paths), func(o *obs) { o.Verdicts[0].Path[0].Class = "Big" }},
		{"one path element's address", allOf(Verdicts, Exact), func(o *obs) { o.Verdicts[0].Path[0].Ref = 24 }},
		{"one violation's count", allOf(Verdicts), func(o *obs) { o.Verdicts[0].Count++ }},
		{"one violation's cycle", allOf(Verdicts, Cycles), func(o *obs) { o.Verdicts[0].Cycle++ }},
		{"one violation's object", allOf(Verdicts), func(o *obs) { o.Verdicts[0].ID++ }},
		{"one rejected registration", allOf(Verdicts), func(o *obs) { o.Rejects = nil }},
		{"one extra live object", allOf(Live), func(o *obs) { o.Live = append(o.Live, obj{4, 44, "Node", 4}) }},
		{"one live object's address", allOf(Live, Exact), func(o *obs) { o.Live[0].Ref = 48 }},
		{"one free chunk", allOf(Exact), func(o *obs) { o.Free[0].Words = 6 }},
		{"one collection", anyOf(Counts, Stats), func(o *obs) { o.Stats.GC.Collections++ }},
		{"one thread allocation", allOf(Counts), func(o *obs) { o.Allocs++ }},
		{"one buffer carve", anyOf(Buffers, Stats), func(o *obs) { o.Stats.Heap.BufferCarves++ }},
		{"one trace counter", anyOf(Trace, Stats), func(o *obs) { o.Stats.GC.Trace.RefsScanned++ }},
		{"a clock", func(Level) bool { return false }, func(o *obs) { o.Stats.GC.GCTime++ }},
	} {
		a, b := base(), base()
		c.change(&b)
		for l := Level(0); l < Stats<<1; l++ {
			if err := compare(l, a, b); (err != nil) != c.compared(l) {
				t.Errorf("%s at level %09b: got %v, want a difference %v", c.what, l, err, c.compared(l))
			}
		}
	}
}

func allOf(flags ...Level) func(Level) bool {
	return func(l Level) bool {
		for _, f := range flags {
			if l&f == 0 {
				return false
			}
		}
		return true
	}
}

func anyOf(flags ...Level) func(Level) bool {
	return func(l Level) bool {
		for _, f := range flags {
			if l&f != 0 {
				return true
			}
		}
		return false
	}
}
