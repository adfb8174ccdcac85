package workloads

import (
	"math/rand"
	"sort"

	"repro/internal/collections"
	"repro/internal/core"
)

func init() { register(func() Workload { return newDBWL() }) }

// db models SPEC JVM98 _209_db: a long-lived in-memory database of Entry
// records (each holding a small item array) under a stream of add, delete,
// find and sort operations. Big stable live set with low allocation rate —
// the workload the paper instruments most heavily in Figures 4/5 (the
// instrumented application lives in internal/minidb; this is the plain
// Figure 2/3 profile).
type dbWL struct {
	r   *rand.Rand
	kit *collections.Kit

	entry  *core.Class
	eItems uint16
	eKey   uint16

	database *core.Global
	nextKey  int64
}

const (
	dbEntries  = 3000
	dbOpsPerIt = 120
)

func newDBWL() *dbWL { return &dbWL{r: rng("db")} }

func (w *dbWL) Name() string   { return "db" }
func (w *dbWL) HeapWords() int { return 112 << 10 }

func (w *dbWL) Setup(rt *core.Runtime, th *core.Thread) {
	w.kit = collections.NewKit(rt)
	w.entry = rt.DefineClass("db.Entry",
		core.RefField("items"), core.DataField("key"))
	w.eItems = w.entry.MustFieldIndex("items")
	w.eKey = w.entry.MustFieldIndex("key")

	w.database = rt.AddGlobal("db.database")
	setNew(th, w.database, w.kit.NewList)
	for i := 0; i < dbEntries; i++ {
		w.addEntry(rt, th)
	}
}

func (w *dbWL) addEntry(rt *core.Runtime, th *core.Thread) {
	f := th.PushFrame(1)
	defer th.PopFrame()
	e := th.New(w.entry)
	f.SetLocal(0, e)
	items := th.NewDataArray(8)
	rt.SetRef(f.Local(0), w.eItems, items)
	for i := 0; i < 8; i++ {
		rt.ArrSetData(items, i, uint64(w.r.Int63n(1<<30)))
	}
	rt.SetInt(f.Local(0), w.eKey, w.nextKey)
	w.nextKey++
	w.kit.ListAdd(th, w.database.Get(), f.Local(0))
}

func (w *dbWL) Iterate(rt *core.Runtime, th *core.Thread) {
	db := w.database.Get()
	var sum uint64
	for op := 0; op < dbOpsPerIt; op++ {
		switch w.r.Intn(8) {
		case 0, 1: // add, evicting beyond the cap
			w.addEntry(rt, th)
			if n := w.kit.ListLen(db); n > dbEntries {
				w.kit.ListRemoveAt(db, w.r.Intn(n))
			}
		case 2, 3: // delete (the _209_db null-assignment idiom)
			if n := w.kit.ListLen(db); n > dbEntries/2 {
				w.kit.ListRemoveAt(db, w.r.Intn(n))
			}
		case 4, 5: // find by key: linear scan, as in the original
			want := w.nextKey - int64(w.r.Intn(dbEntries)) - 1
			w.kit.ListEach(db, func(_ int, e core.Ref) {
				if rt.GetInt(e, w.eKey) == want {
					sum = checksum(sum, uint64(want))
				}
			})
		default: // sort by an item column into a transient managed index
			n := w.kit.ListLen(db)
			f := th.PushFrame(1)
			scratch := th.NewRefArray(n)
			f.SetLocal(0, scratch)
			cols := make([]uint64, 0, n)
			w.kit.ListEach(db, func(i int, e core.Ref) {
				rt.ArrSetRef(scratch, i, e)
				items := rt.GetRef(e, w.eItems)
				cols = append(cols, rt.ArrGetData(items, 0))
			})
			sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
			if len(cols) > 0 {
				sum = checksum(sum, cols[0])
			}
			th.PopFrame()
		}
	}
	_ = sum
}
