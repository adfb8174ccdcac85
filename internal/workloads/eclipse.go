package workloads

import (
	"math/rand"

	"repro/internal/collections"
	"repro/internal/core"
)

func init() { register(func() Workload { return newEclipse() }) }

// eclipse models the DaCapo IDE benchmark: a large, long-lived workspace —
// a map from file ids to symbol lists — continuously edited: files are
// reindexed (their symbol lists rebuilt), searched, and occasionally
// created or deleted. The profile is a big stable heap with steady
// medium-sized turnover, the largest live set in the suite.
type eclipse struct {
	r   *rand.Rand
	kit *collections.Kit

	symbol *core.Class
	sName  uint16
	sKind  uint16

	workspace *core.Global
	nextFile  int64
}

const (
	eclipseFiles       = 400
	eclipseSymsPerFile = 24
	eclipseEditsPerIt  = 100
)

func newEclipse() *eclipse { return &eclipse{r: rng("eclipse")} }

func (w *eclipse) Name() string   { return "eclipse" }
func (w *eclipse) HeapWords() int { return 224 << 10 }

func (w *eclipse) Setup(rt *core.Runtime, th *core.Thread) {
	w.kit = collections.NewKit(rt)
	w.symbol = rt.DefineClass("eclipse.Symbol",
		core.RefField("name"), core.DataField("kind"))
	w.sName = w.symbol.MustFieldIndex("name")
	w.sKind = w.symbol.MustFieldIndex("kind")

	w.workspace = rt.AddGlobal("eclipse.workspace")
	setNew(th, w.workspace, w.kit.NewMap)
	for i := 0; i < eclipseFiles; i++ {
		w.indexFile(rt, th, w.nextFile)
		w.nextFile++
	}
}

// indexFile builds a fresh symbol list for the file and installs it in the
// workspace map.
func (w *eclipse) indexFile(rt *core.Runtime, th *core.Thread, file int64) {
	f := th.PushFrame(2)
	defer th.PopFrame()
	w.kit.NewList(f, 0)
	for s := 0; s < eclipseSymsPerFile; s++ {
		name := th.NewString(sentence(w.r, 2))
		f.SetLocal(1, name)
		sym := th.New(w.symbol)
		rt.SetRef(sym, w.sName, f.Local(1))
		rt.SetInt(sym, w.sKind, int64(w.r.Intn(8)))
		w.kit.ListAdd(th, f.Local(0), sym)
	}
	w.kit.MapPut(th, w.workspace.Get(), file, f.Local(0))
}

func (w *eclipse) Iterate(rt *core.Runtime, th *core.Thread) {
	ws := w.workspace.Get()
	var sum uint64
	for e := 0; e < eclipseEditsPerIt; e++ {
		switch w.r.Intn(10) {
		case 0: // create a file, retiring the oldest beyond the cap
			w.indexFile(rt, th, w.nextFile)
			w.nextFile++
			w.kit.MapRemove(ws, w.nextFile-int64(eclipseFiles)-1)
		case 1: // delete a file
			if file := w.nextFile - int64(w.r.Intn(eclipseFiles)) - 1; file >= 0 {
				w.kit.MapRemove(ws, file)
			}
		default: // edit: reindex an existing file
			file := w.nextFile - int64(w.r.Intn(eclipseFiles)) - 1
			if file >= 0 {
				w.indexFile(rt, th, file)
			}
		}
		// Search pass: scan a few files' symbols.
		for q := 0; q < 5; q++ {
			file := w.nextFile - int64(w.r.Intn(eclipseFiles)) - 1
			if file < 0 {
				continue
			}
			if list, ok := w.kit.MapGet(ws, file); ok {
				w.kit.ListEach(list, func(_ int, sym core.Ref) {
					sum = checksum(sum, uint64(rt.GetInt(sym, w.sKind)))
				})
			}
		}
	}
	_ = sum
}
