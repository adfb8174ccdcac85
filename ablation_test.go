package repro

// Ablation benchmarks for the design decisions DESIGN.md calls out:
//
//  1. path tracking in the trace loop (the low-bit worklist) vs the plain
//     Base loop;
//  2. the paper's owner-first ownership phase vs the naive algorithm that
//     re-traces each owner's region separately after the ordinary mark;
//  3. sorted ownee arrays with binary search vs a hash set.

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/classes"
	"repro/internal/core"
	"repro/internal/cork"
	"repro/internal/jbb"
	"repro/internal/staleness"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// buildGraphHeap constructs a random object graph: n nodes with two ref
// fields wired to random targets, rooted at a handful of global slots.
func buildGraphHeap(n int) (*vmheap.Heap, *classes.Registry, [][]vmheap.Ref) {
	reg := classes.NewRegistry()
	node := reg.MustDefine("Node",
		nil,
		classes.Field{Name: "a", Kind: classes.RefKind},
		classes.Field{Name: "b", Kind: classes.RefKind},
		classes.Field{Name: "v", Kind: classes.DataKind},
	)
	h := vmheap.New(n*8 + 1024)
	gl := make([]vmheap.Ref, 8)
	rng := rand.New(rand.NewSource(42))

	refs := make([]vmheap.Ref, n)
	for i := range refs {
		r, err := h.Alloc(vmheap.KindScalar, node.ID, node.FieldWords)
		if err != nil {
			panic(err)
		}
		refs[i] = r
	}
	aOff := uint32(node.MustFieldIndex("a"))
	bOff := uint32(node.MustFieldIndex("b"))
	for _, r := range refs {
		h.SetRefAt(r, aOff, refs[rng.Intn(n)])
		if rng.Intn(2) == 0 {
			h.SetRefAt(r, bOff, refs[rng.Intn(n)])
		}
	}
	for i := range gl {
		gl[i] = refs[rng.Intn(n)]
	}
	return h, reg, [][]vmheap.Ref{gl}
}

// BenchmarkAblationPathTracking compares the Base trace loop against the
// Infrastructure loop (path-tracking worklist plus per-object checks) over
// an identical heap: the marginal cost of keeping full paths reconstructable
// at every moment of the trace.
func BenchmarkAblationPathTracking(b *testing.B) {
	const n = 50000
	for _, variant := range []string{"Base", "Infrastructure"} {
		b.Run(variant, func(b *testing.B) {
			h, reg, gl := buildGraphHeap(n)
			tr := trace.New(h, reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if variant == "Base" {
					tr.TraceBase(gl)
				} else {
					tr.TraceInfra(gl)
				}
				b.StopTimer()
				h.ClearMarks(0)
				tr.Reset()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblationOwneeLookup compares the paper's sorted-array binary
// search against a Go hash set for the per-ownee membership query, at the
// _209_db scale (15k ownees).
func BenchmarkAblationOwneeLookup(b *testing.B) {
	const n = 15000
	rng := rand.New(rand.NewSource(7))
	ownees := make([]vmheap.Ref, n)
	for i := range ownees {
		ownees[i] = vmheap.Ref(uint32(i)*16 + 2)
	}
	sort.Slice(ownees, func(i, j int) bool { return ownees[i] < ownees[j] })
	set := make(map[vmheap.Ref]int, n)
	for i, r := range ownees {
		set[r] = i
	}
	// Query mix: half hits, half misses.
	queries := make([]vmheap.Ref, 4096)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = ownees[rng.Intn(n)]
		} else {
			queries[i] = vmheap.Ref(uint32(rng.Intn(n*16)) | 1) // odd: never an ownee
		}
	}

	b.Run("binary-search", func(b *testing.B) {
		var found int
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			lo, hi := 0, len(ownees)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if ownees[mid] < q {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(ownees) && ownees[lo] == q {
				found++
			}
		}
		_ = found
	})
	b.Run("hash-set", func(b *testing.B) {
		var found int
		for i := 0; i < b.N; i++ {
			if _, ok := set[queries[i%len(queries)]]; ok {
				found++
			}
		}
		_ = found
	})
}

// ownershipWorld builds a runtime with owners each holding a region of
// ownees, for the phase-vs-naive comparison.
type ownershipWorld struct {
	rt     *core.Runtime
	owners []core.Ref
	ownees [][]core.Ref
	elemA  uint16
}

func buildOwnershipWorld(owners, owneesPer int) *ownershipWorld {
	rt := core.New(core.Config{HeapWords: 1 << 20, Mode: core.Infrastructure})
	th := rt.MainThread()
	owner := rt.DefineClass("Owner", core.RefField("elems"))
	elem := rt.DefineClass("Elem", core.RefField("next"), core.DataField("v"))
	w := &ownershipWorld{rt: rt, elemA: elem.MustFieldIndex("next")}

	for o := 0; o < owners; o++ {
		f := th.PushFrame(2)
		ow := th.New(owner)
		f.SetLocal(0, ow)
		arr := th.NewRefArray(owneesPer)
		rt.SetRef(ow, owner.MustFieldIndex("elems"), arr)
		rt.AddGlobal(string(rune('A' + o))).Set(ow)
		var es []core.Ref
		for e := 0; e < owneesPer; e++ {
			el := th.New(elem)
			rt.ArrSetRef(arr, e, el)
			es = append(es, el)
			if err := rt.AssertOwnedBy(f.Local(0), el); err != nil {
				panic(err)
			}
		}
		w.owners = append(w.owners, f.Local(0))
		w.ownees = append(w.ownees, es)
		th.PopFrame()
	}
	return w
}

// BenchmarkAblationOwnership compares a full collection with the paper's
// ownership pre-phase (the real collector) against the naive algorithm:
// a normal collection followed by a separate reachability trace from each
// owner, re-processing the owner regions a second time.
func BenchmarkAblationOwnership(b *testing.B) {
	const owners, owneesPer = 8, 2000

	b.Run("paper-phase", func(b *testing.B) {
		w := buildOwnershipWorld(owners, owneesPer)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.rt.GC(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("naive-retrace", func(b *testing.B) {
		// Same heap shape, no registered assertions: the ownership work
		// is simulated by an extra per-owner reachability pass over the
		// public API, the double-processing the paper designs away.
		rt := core.New(core.Config{HeapWords: 1 << 20, Mode: core.Infrastructure})
		th := rt.MainThread()
		ownerC := rt.DefineClass("Owner", core.RefField("elems"))
		elemC := rt.DefineClass("Elem", core.RefField("next"), core.DataField("v"))
		elemsOff := ownerC.MustFieldIndex("elems")
		nextOff := elemC.MustFieldIndex("next")
		var ownerRefs []core.Ref
		owneeSet := make(map[core.Ref]bool, owners*owneesPer)
		for o := 0; o < owners; o++ {
			f := th.PushFrame(1)
			ow := th.New(ownerC)
			f.SetLocal(0, ow)
			arr := th.NewRefArray(owneesPer)
			rt.SetRef(ow, elemsOff, arr)
			rt.AddGlobal(string(rune('A' + o))).Set(ow)
			for e := 0; e < owneesPer; e++ {
				el := th.New(elemC)
				rt.ArrSetRef(arr, e, el)
				owneeSet[el] = true
			}
			ownerRefs = append(ownerRefs, f.Local(0))
			th.PopFrame()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.GC(); err != nil {
				b.Fatal(err)
			}
			// Naive pass: BFS from each owner, testing every reached
			// object for ownee-ness.
			for _, ow := range ownerRefs {
				visited := map[core.Ref]bool{}
				stack := []core.Ref{ow}
				for len(stack) > 0 {
					r := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if r == core.Nil || visited[r] {
						continue
					}
					visited[r] = true
					_ = owneeSet[r]
					switch rt.ClassOf(r) {
					case ownerC:
						stack = append(stack, rt.GetRef(r, elemsOff))
					case elemC:
						stack = append(stack, rt.GetRef(r, nextOff))
					default: // the elems array
						for j, n := 0, rt.ArrLen(r); j < n; j++ {
							stack = append(stack, rt.ArrGetRef(r, j))
						}
					}
				}
			}
		}
	})
}

// BenchmarkBaselineDetectors compares the per-cycle cost of the paper's
// approach (ownership assertions piggybacked on the collection) against
// the related-work baselines, which each pay a separate full heap walk per
// cycle on top of the plain collection: the Cork-style census and the
// staleness tracker's Advance.
func BenchmarkBaselineDetectors(b *testing.B) {
	buildJBB := func(withAsserts bool) (*core.Runtime, *jbb.Benchmark) {
		rt := core.New(core.Config{HeapWords: 1 << 19, Mode: core.Infrastructure})
		bench := jbb.New(rt, jbb.Config{
			ClearLastOrder:     true,
			AssertOwnedByOnAdd: withAsserts,
		})
		bench.RunTransactions(1500)
		return rt, bench
	}

	b.Run("gc-assertions", func(b *testing.B) {
		rt, _ := buildJBB(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.GC(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cork-census", func(b *testing.B) {
		rt, _ := buildJBB(false)
		d := cork.New(cork.Config{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.GC(); err != nil {
				b.Fatal(err)
			}
			d.Observe(rt)
		}
	})
	b.Run("staleness-advance", func(b *testing.B) {
		rt, _ := buildJBB(false)
		tr := staleness.New(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.GC(); err != nil {
				b.Fatal(err)
			}
			tr.Advance(rt)
		}
	})
}
