package workloads

import (
	"math/rand"

	"repro/internal/collections"
	"repro/internal/core"
)

func init() { register(func() Workload { return newPseudojbbWL() }) }

// pseudojbb models the fixed-workload SPEC JBB2000 heap profile for
// Figures 2/3: warehouses holding district order tables (B-trees) with a
// steady churn of order transactions. The faithful instrumented
// application — with the actual leaks the paper diagnoses — lives in
// internal/jbb; this profile keeps Figure 2/3's suite self-contained.
type pseudojbbWL struct {
	r   *rand.Rand
	kit *collections.Kit

	order  *core.Class
	oLines uint16
	oTotal uint16

	warehouses *core.Global // ref array of district order trees
	nextOrder  int64
}

const (
	pjbbDistricts  = 10
	pjbbLiveOrders = 250 // per district
	pjbbTxPerIter  = 600
)

func newPseudojbbWL() *pseudojbbWL { return &pseudojbbWL{r: rng("pseudojbb")} }

func (w *pseudojbbWL) Name() string   { return "pseudojbb" }
func (w *pseudojbbWL) HeapWords() int { return 1 << 17 }

func (w *pseudojbbWL) Setup(rt *core.Runtime, th *core.Thread) {
	w.kit = collections.NewKit(rt)
	w.order = rt.DefineClass("pseudojbb.Order",
		core.RefField("lines"), core.DataField("total"))
	w.oLines = w.order.MustFieldIndex("lines")
	w.oTotal = w.order.MustFieldIndex("total")

	w.warehouses = rt.AddGlobal("pseudojbb.districts")
	districts := th.NewRefArray(pjbbDistricts)
	w.warehouses.Set(districts)
	for d := 0; d < pjbbDistricts; d++ {
		f := th.PushFrame(1)
		rt.ArrSetRef(districts, d, w.kit.NewTree(f, 0))
		th.PopFrame()
	}
	// Warm the order tables to their steady-state size.
	for i := 0; i < pjbbDistricts*pjbbLiveOrders; i++ {
		w.newOrderTx(rt, th)
	}
}

// newOrderTx creates an order with order lines and files it in a district.
func (w *pseudojbbWL) newOrderTx(rt *core.Runtime, th *core.Thread) {
	f := th.PushFrame(1)
	defer th.PopFrame()
	o := th.New(w.order)
	f.SetLocal(0, o)
	lines := th.NewDataArray(10)
	rt.SetRef(f.Local(0), w.oLines, lines)
	total := int64(0)
	for i := 0; i < 10; i++ {
		v := int64(w.r.Intn(500))
		rt.ArrSetData(lines, i, uint64(v))
		total += v
	}
	rt.SetInt(f.Local(0), w.oTotal, total)

	id := w.nextOrder
	w.nextOrder++
	tree := rt.ArrGetRef(w.warehouses.Get(), int(id)%pjbbDistricts)
	w.kit.TreePut(th, tree, id, f.Local(0))
}

// deliveryTx completes (removes) the oldest orders of one district.
func (w *pseudojbbWL) deliveryTx(rt *core.Runtime, d int) uint64 {
	tree := rt.ArrGetRef(w.warehouses.Get(), d)
	var sum uint64
	for w.kit.TreeLen(tree) > pjbbLiveOrders {
		// Remove the smallest (oldest) key.
		var oldest int64 = -1
		w.kit.TreeEach(tree, func(key int64, _ core.Ref) {
			if oldest < 0 {
				oldest = key
			}
		})
		if o, ok := w.kit.TreeGet(tree, oldest); ok {
			sum = checksum(sum, uint64(rt.GetInt(o, w.oTotal)))
		}
		w.kit.TreeRemove(tree, oldest)
	}
	return sum
}

func (w *pseudojbbWL) Iterate(rt *core.Runtime, th *core.Thread) {
	var sum uint64
	for tx := 0; tx < pjbbTxPerIter; tx++ {
		w.newOrderTx(rt, th)
		if tx%pjbbDistricts == 0 {
			sum = checksum(sum, w.deliveryTx(rt, w.r.Intn(pjbbDistricts)))
		}
	}
	// Final delivery sweep keeps every district at steady state.
	for d := 0; d < pjbbDistricts; d++ {
		sum = checksum(sum, w.deliveryTx(rt, d))
	}
	_ = sum
}
