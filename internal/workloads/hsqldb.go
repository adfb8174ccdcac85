package workloads

import (
	"math/rand"

	"repro/internal/collections"
	"repro/internal/core"
)

func init() { register(func() Workload { return newHsqldb() }) }

// hsqldb models the DaCapo in-memory SQL engine: rows live in a long-lived
// B-tree primary index; iterations run transactions that insert batches,
// update rows in place, delete ranges, and range-scan. Container-dominated
// heap with steady row churn — the profile that stresses interior-pointer-
// dense B-tree nodes.
type hsqldb struct {
	r   *rand.Rand
	kit *collections.Kit

	row    *core.Class
	rCols  uint16
	rScore uint16

	table   *core.Global
	nextKey int64
	minKey  int64 // oldest key possibly still present
}

const (
	hsqldbRows    = 4000
	hsqldbTxPerIt = 60
	hsqldbBatch   = 40
)

func newHsqldb() *hsqldb { return &hsqldb{r: rng("hsqldb")} }

func (w *hsqldb) Name() string   { return "hsqldb" }
func (w *hsqldb) HeapWords() int { return 150 << 10 }

func (w *hsqldb) Setup(rt *core.Runtime, th *core.Thread) {
	w.kit = collections.NewKit(rt)
	w.row = rt.DefineClass("hsqldb.Row",
		core.RefField("cols"), core.DataField("score"))
	w.rCols = w.row.MustFieldIndex("cols")
	w.rScore = w.row.MustFieldIndex("score")

	w.table = rt.AddGlobal("hsqldb.table")
	setNew(th, w.table, w.kit.NewTree)
	for i := 0; i < hsqldbRows; i++ {
		w.insertRow(rt, th)
	}
}

// insertRow adds one row with a small column payload.
func (w *hsqldb) insertRow(rt *core.Runtime, th *core.Thread) {
	f := th.PushFrame(1)
	defer th.PopFrame()
	row := th.New(w.row)
	f.SetLocal(0, row)
	cols := th.NewDataArray(6)
	rt.SetRef(f.Local(0), w.rCols, cols)
	for c := 0; c < 6; c++ {
		rt.ArrSetData(cols, c, uint64(w.r.Int63n(1<<30)))
	}
	rt.SetInt(f.Local(0), w.rScore, int64(w.r.Intn(100)))
	w.kit.TreePut(th, w.table.Get(), w.nextKey, f.Local(0))
	w.nextKey++
}

func (w *hsqldb) Iterate(rt *core.Runtime, th *core.Thread) {
	table := w.table.Get()
	var sum uint64
	for tx := 0; tx < hsqldbTxPerIt; tx++ {
		switch w.r.Intn(4) {
		case 0: // INSERT batch, trimming the oldest rows beyond the cap
			for i := 0; i < hsqldbBatch; i++ {
				w.insertRow(rt, th)
			}
			for w.kit.TreeLen(table) > hsqldbRows {
				if !w.kit.TreeRemove(table, w.minKey) {
					w.minKey++
					continue
				}
				w.minKey++
			}
		case 1: // DELETE range
			start := w.nextKey - int64(w.r.Intn(hsqldbRows))
			for k := start; k < start+hsqldbBatch; k++ {
				w.kit.TreeRemove(table, k)
			}
		case 2: // UPDATE in place
			for i := 0; i < hsqldbBatch; i++ {
				key := w.nextKey - int64(w.r.Intn(hsqldbRows)) - 1
				if row, ok := w.kit.TreeGet(table, key); ok {
					rt.SetInt(row, w.rScore, rt.GetInt(row, w.rScore)+1)
				}
			}
		case 3: // SELECT: full scan aggregation
			w.kit.TreeEach(table, func(_ int64, row core.Ref) {
				sum = checksum(sum, uint64(rt.GetInt(row, w.rScore)))
			})
		}
	}
	_ = sum
}
