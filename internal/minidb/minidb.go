// Package minidb reproduces the SPEC JVM98 _209_db case study of the
// paper's Section 3.1: an in-memory database of Entry records under an
// address-book-style operation stream. The paper instruments it two ways:
//
//   - "we asserted that all Entry objects are owned by their containing
//     Database object" — assert-ownedby on every Add (15,553 calls in the
//     paper's run, with ~15,274 ownees checked per GC);
//   - "we added assert-dead assertions at code locations where the authors
//     had assigned null to an instance variable" (695 calls) — the Remove
//     path here, which nulls the database's current-entry field.
//
// A configurable defect (LeakCache) retains removed entries in a side
// cache, which the ownership assertion catches as unowned ownees.
package minidb

import (
	"repro/internal/collections"
	"repro/internal/core"
)

// Config shapes the database and its instrumentation.
type Config struct {
	// Entries is the initial record count (default 15000, the scale at
	// which the paper's per-GC ownee-check count lands around 15k).
	Entries int
	// ItemsPerEntry is the number of string items per record (default 3).
	ItemsPerEntry int

	// AssertOwnership adds assert-ownedby(database, entry) on every add.
	AssertOwnership bool
	// AssertDeadOnRemove adds assert-dead at the null-assignment site in
	// Remove.
	AssertDeadOnRemove bool

	// LeakCache retains removed entries in a side cache — the injected
	// defect the assertions catch.
	LeakCache bool
}

func (c Config) withDefaults() Config {
	if c.Entries == 0 {
		c.Entries = 15000
	}
	if c.ItemsPerEntry == 0 {
		c.ItemsPerEntry = 3
	}
	return c
}

// Database is one configured instance bound to a runtime.
type Database struct {
	rt  *core.Runtime
	th  *core.Thread
	kit *collections.Kit
	cfg Config

	// Entry: items (ref array of strings), key.
	Entry  *core.Class
	eItems uint16
	eKey   uint16

	// DatabaseObj: entries (ArrayList), current (last accessed Entry —
	// the instance variable the original nulls on remove).
	DatabaseObj *core.Class
	dEntries    uint16
	dCurrent    uint16

	db    *core.Global
	cache *core.Global // only populated under LeakCache

	nextKey int64
	rng     uint64

	// Counters mirroring the paper's reported volumes.
	DeadAsserts    int64
	OwnedByAsserts int64
}

// New defines the classes and populates the initial database.
func New(rt *core.Runtime, cfg Config) *Database {
	d := &Database{
		rt:  rt,
		th:  rt.MainThread(),
		kit: collections.NewKit(rt),
		cfg: cfg.withDefaults(),
		rng: 0xdb9e3779b97f4a7d,
	}

	d.Entry = rt.DefineClass("Entry",
		core.RefField("items"), core.DataField("key"))
	d.eItems = d.Entry.MustFieldIndex("items")
	d.eKey = d.Entry.MustFieldIndex("key")

	d.DatabaseObj = rt.DefineClass("Database",
		core.RefField("entries"), core.RefField("current"))
	d.dEntries = d.DatabaseObj.MustFieldIndex("entries")
	d.dCurrent = d.DatabaseObj.MustFieldIndex("current")

	d.db = rt.AddGlobal("minidb.database")
	d.cache = rt.AddGlobal("minidb.cache")

	th := d.th
	f := th.PushFrame(2)
	dbObj := th.New(d.DatabaseObj)
	f.SetLocal(0, dbObj)
	entries := d.kit.NewList(th)
	rt.SetRef(f.Local(0), d.dEntries, entries)
	d.db.Set(f.Local(0))
	d.cache.Set(d.kit.NewList(th))
	th.PopFrame()

	for i := 0; i < d.cfg.Entries; i++ {
		d.Add()
	}
	return d
}

// Runtime returns the underlying runtime.
func (d *Database) Runtime() *core.Runtime { return d.rt }

// Ref returns the Database heap object (the ownership owner).
func (d *Database) Ref() core.Ref { return d.db.Get() }

// Len returns the current record count.
func (d *Database) Len() int {
	return d.kit.ListLen(d.rt.GetRef(d.db.Get(), d.dEntries))
}

func (d *Database) rand(n int) int {
	d.rng ^= d.rng >> 12
	d.rng ^= d.rng << 25
	d.rng ^= d.rng >> 27
	return int((d.rng * 0x2545F4914F6CDD1D) >> 33 % uint64(n))
}

// Add inserts a fresh Entry; with AssertOwnership it is asserted owned by
// the Database object.
func (d *Database) Add() { d.AddOn(d.th) }

// AddOn is Add allocating on the given thread — the serving path, where
// each worker owns a buffered mutator thread. Database operations are not
// internally synchronized: callers running ops from more than one
// goroutine (minidb.Server) must serialize structural mutations
// themselves; the thread argument only moves the allocations.
func (d *Database) AddOn(th *core.Thread) {
	rt := d.rt
	f := th.PushFrame(2)
	defer th.PopFrame()

	e := th.New(d.Entry)
	f.SetLocal(0, e)
	items := th.NewRefArray(d.cfg.ItemsPerEntry)
	rt.SetRef(f.Local(0), d.eItems, items)
	for i := 0; i < d.cfg.ItemsPerEntry; i++ {
		s := th.NewString(itemText(d.nextKey, i))
		f.SetLocal(1, s)
		items = rt.GetRef(f.Local(0), d.eItems)
		rt.ArrSetRef(items, i, f.Local(1))
	}
	rt.SetInt(f.Local(0), d.eKey, d.nextKey)
	d.nextKey++

	d.kit.ListAdd(th, rt.GetRef(d.db.Get(), d.dEntries), f.Local(0))
	if d.cfg.AssertOwnership {
		if err := rt.AssertOwnedBy(d.db.Get(), f.Local(0)); err != nil {
			panic(err)
		}
		d.OwnedByAsserts++
	}
}

// Remove deletes a random entry — the original's idiom: the entry leaves
// the list and the `current` instance variable is assigned null, at which
// point the paper places assert-dead. Under LeakCache the removed entry is
// also retained in the side cache (the defect).
func (d *Database) Remove() { d.RemoveOn(d.th) }

// RemoveOn is Remove allocating on the given thread (see AddOn).
func (d *Database) RemoveOn(th *core.Thread) {
	rt := d.rt
	entries := rt.GetRef(d.db.Get(), d.dEntries)
	n := d.kit.ListLen(entries)
	if n == 0 {
		return
	}
	f := th.PushFrame(1)
	defer th.PopFrame()
	d.kit.ListRemoveAtInto(f, 0, entries, d.rand(n))

	if d.cfg.LeakCache {
		d.kit.ListAdd(th, d.cache.Get(), f.Local(0))
	}

	// current = null; the author "believed that an object that had been
	// destroyed should be unreachable".
	rt.SetRef(d.db.Get(), d.dCurrent, core.Nil)
	if d.cfg.AssertDeadOnRemove {
		if err := f.AssertDead(0); err != nil {
			panic(err)
		}
		d.DeadAsserts++
	}
}

// Find performs the original's linear key scan, setting `current` to the
// entry with the key. It reads the keys a list block at a time, one
// GatherData call per block, and stops at the hit: keys are unique, so that
// is the entry the per-element scan found.
//
// The buffered block's Refs are Go locals the collector does not see. That is
// safe because every caller that shares the database with another mutator
// (Server) runs Find under its database lock, so no remover runs during the
// scan: each buffered entry stays an element of the list, and so reachable,
// across any collection cycle that opens or completes meanwhile.
func (d *Database) Find(key int64) bool {
	rt := d.rt
	dbObj := d.db.Get()
	found := false
	var (
		block [collections.ListBlock]core.Ref
		keys  [collections.ListBlock]uint64
	)
	d.kit.ListEachBlock(rt.GetRef(dbObj, d.dEntries), block[:], func(_, n int) bool {
		rt.GatherData(block[:n], d.eKey, keys[:])
		for j, k := range keys[:n] {
			if int64(k) == key {
				rt.SetRef(dbObj, d.dCurrent, block[j])
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// Scan folds every entry's first item length (a read pass).
func (d *Database) Scan() uint64 {
	rt := d.rt
	var sum uint64
	d.kit.ListEach(rt.GetRef(d.db.Get(), d.dEntries), func(_ int, e core.Ref) {
		items := rt.GetRef(e, d.eItems)
		if rt.ArrLen(items) > 0 {
			if s := rt.ArrGetRef(items, 0); s != core.Nil {
				sum += uint64(rt.StringLen(s))
			}
		}
	})
	return sum
}

// Sort builds a transient index of the database ordered by key — the
// original's sort operation, and the main source of allocation in the
// read-heavy mix (a fresh scratch array per sort).
func (d *Database) Sort() core.Ref { return d.SortOn(d.th) }

// SortOn is Sort allocating its scratch index on the given thread (see
// AddOn).
func (d *Database) SortOn(th *core.Thread) core.Ref {
	rt := d.rt
	entries := rt.GetRef(d.db.Get(), d.dEntries)
	n := d.kit.ListLen(entries)
	f := th.PushFrame(1)
	defer th.PopFrame()
	scratch := th.NewRefArray(n)
	f.SetLocal(0, scratch)
	d.kit.ListEach(entries, func(i int, e core.Ref) {
		rt.ArrSetRef(scratch, i, e)
	})
	// Insertion-sort prefix by key (bounded: the full n^2 would dominate
	// the run; the original sorts on demand, we sort a window).
	limit := n
	if limit > 256 {
		limit = 256
	}
	for i := 1; i < limit; i++ {
		for j := i; j > 0; j-- {
			a := rt.ArrGetRef(scratch, j-1)
			b := rt.ArrGetRef(scratch, j)
			if rt.GetInt(a, d.eKey) <= rt.GetInt(b, d.eKey) {
				break
			}
			rt.ArrSetRef(scratch, j-1, b)
			rt.ArrSetRef(scratch, j, a)
		}
	}
	return f.Local(0)
}

// RunOps executes a deterministic operation mix: mostly finds and scans
// with a trickle of adds, removes and sorts, approximating the original's
// read-heavy profile.
func (d *Database) RunOps(n int) {
	for i := 0; i < n; i++ {
		switch d.rand(20) {
		case 0:
			d.Add()
		case 1:
			d.Remove()
		case 2, 3:
			d.Scan()
		case 4, 5:
			d.Sort()
		default:
			d.Find(int64(d.rand(int(d.nextKey) + 1)))
		}
	}
}

// itemText builds a deterministic item string.
func itemText(key int64, i int) string {
	names := [...]string{"Fred Smith", "12 Oak Lane", "555-0100", "Anytown"}
	return names[i%len(names)]
}
