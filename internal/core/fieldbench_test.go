package core

import "testing"

var benchSinkInt int64

// BenchmarkFieldAccess is the accessor microbenchmark in both locking
// regimes: solo (one mutator, no lock — what bench/layers.go's isolated
// runtime measures as core.getref_ns & co.) and shared (NewThread has run,
// every path locks — what a multi-worker server pays and the only recorded
// figure for it). Stop-the-world mark-sweep, direct allocation. Each range
// accessor (ArrCopyRefs, ArrReadRefs, GatherData) runs beside the
// per-element loop it replaced in internal/collections or minidb.Find
// (*Loop): one op is the whole move or block, so ns/op divides by the
// element count in the name.
func BenchmarkFieldAccess(b *testing.B) {
	for _, regime := range []string{"solo", "shared"} {
		b.Run(regime, func(b *testing.B) {
			rt := New(Config{HeapWords: 1 << 18})
			if regime == "shared" {
				rt.NewThread("second")
			}
			node := rt.DefineClass("bench.Node", RefField("next"), DataField("v"))
			next, v := node.MustFieldIndex("next"), node.MustFieldIndex("v")
			th := rt.MainThread()
			f := th.PushFrame(4)
			f.New(0, node)
			f.New(1, node)
			f.NewRefArray(2, 1024)
			f.NewRefArray(3, 64)
			x, y, arr := f.Local(0), f.Local(1), f.Local(2)
			rt.SetRef(x, next, y)
			for i := 0; i < 1024; i++ {
				rt.ArrSetRef(arr, i, y)
			}
			// objs: 64 distinct nodes, rooted through local 3's array.
			var objs [64]Ref
			for i := range objs {
				objs[i] = th.New(node)
				rt.SetInt(objs[i], v, int64(i))
				rt.ArrSetRef(f.Local(3), i, objs[i])
			}
			var buf [64]Ref
			var words [64]uint64
			shiftLoop := func(n int) {
				for j := 0; j < n; j++ {
					rt.ArrSetRef(arr, j, rt.ArrGetRef(arr, j+1))
				}
			}
			for _, op := range []struct {
				name string
				call func(i int)
			}{
				{"GetRef", func(int) { benchSink = rt.GetRef(x, next) }},
				{"SetRef", func(int) { rt.SetRef(x, next, y) }},
				{"GetInt", func(int) { benchSinkInt += rt.GetInt(x, v) }},
				{"ArrGetRef", func(i int) { benchSink = rt.ArrGetRef(arr, i&1023) }},
				{"ArrSetRef", func(i int) { rt.ArrSetRef(arr, i&1023, y) }},
				{"ArrCopyRefs/8", func(int) { rt.ArrCopyRefs(arr, 0, arr, 1, 8) }},
				{"ArrCopyLoop/8", func(int) { shiftLoop(8) }},
				{"ArrCopyRefs/512", func(int) { rt.ArrCopyRefs(arr, 0, arr, 1, 512) }},
				{"ArrCopyLoop/512", func(int) { shiftLoop(512) }},
				{"ArrReadRefs/64", func(i int) { benchSinkInt += int64(rt.ArrReadRefs(arr, i&511, buf[:])) }},
				{"ArrReadLoop/64", func(i int) {
					for j := range buf {
						buf[j] = rt.ArrGetRef(arr, i&511+j)
					}
				}},
				{"GatherData/64", func(int) {
					rt.GatherData(objs[:], v, words[:])
					benchSinkInt += int64(words[63])
				}},
				{"GetIntLoop/64", func(int) {
					for _, o := range objs {
						benchSinkInt += rt.GetInt(o, v)
					}
				}},
				{"Local", func(int) { benchSink = f.Local(1) }},
				{"NewDirect", func(int) { benchSink = th.New(node) }},
			} {
				b.Run(op.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						op.call(i)
					}
				})
			}
		})
	}
}
