package core

import (
	"math/rand"
	"testing"

	"repro/internal/report"
	"repro/internal/vmheap"
)

// checkRemsetPrecision asserts the remembered-set precision property for
// zone zi immediately after a per-zone collection: every surviving entry
// names a slot that (a) belongs to an allocated source object in another
// zone, (b) is a reference slot of the right kind for that source — a
// declared reference field of a scalar instance or an element of a
// reference array — and (c) currently holds a reference to an allocated
// object inside zone zi. Entries violating any of these are stale and
// should have been purged by the store barrier, the free observer, or the
// pre-collection validation pass. The one exception is a source that a zone
// collection found dead but whose lazy sweep is still pending: its entry
// stands until that sweep reaches it. A whole-heap collection leaves no
// such source behind (vmheap.Sweep completes a zoned arena's sweep).
func checkRemsetPrecision(t *testing.T, rt *Runtime, zi int) {
	t.Helper()
	zh := rt.Zone(zi).h
	for slot, src := range rt.RemsetEntries(zi) {
		if !rt.heap.IsObject(src) {
			if swept, total := rt.heap.ZoneOf(src).SegmentStates(); swept < total {
				// The source died in a zone collection whose lazy sweep has
				// not reached it, so the free observer has not run: floating
				// garbage, purged before the source's memory is reused
				// (DESIGN.md §13). Its slot is dead memory; nothing more to
				// check.
				continue
			}
			t.Fatalf("zone %d remset: slot %d has a freed source %d", zi, slot, src)
		}
		if zh.Contains(src) {
			t.Fatalf("zone %d remset: source %d is inside the target zone", zi, src)
		}
		val := rt.heap.SlotRef(slot)
		if val == Nil || !zh.Contains(val) || !rt.heap.IsObject(val) {
			t.Fatalf("zone %d remset: slot %d of src %d holds %d, not a live zone object",
				zi, slot, src, val)
		}
		off := slot - uint32(src)
		switch rt.heap.KindOf(src) {
		case vmheap.KindScalar:
			ok := false
			for _, fo := range rt.reg.RefOffsets(rt.heap.ClassID(src)) {
				if uint32(fo) == off {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("zone %d remset: slot %d is not a ref field of src %d", zi, slot, src)
			}
		case vmheap.KindRefArray:
			if off < 2 || off-2 >= rt.heap.ArrayLen(src) {
				t.Fatalf("zone %d remset: slot %d outside ref array src %d", zi, slot, src)
			}
		default:
			t.Fatalf("zone %d remset: src %d has no reference slots", zi, src)
		}
	}
}

// zoneShadow mirrors the mutator-visible object graph so the fuzzer can
// compute exact reachability independently of the collector. Entries for
// unreachable objects linger until their address is reused (record
// overwrites them) or a retire removes them; reachability walks only the
// live subgraph, so stale entries are inert.
type zoneShadow struct {
	objs  map[Ref][]Ref // object -> current reference slots (nil for data arrays)
	roots [diffSlots]Ref
}

func (s *zoneShadow) reachable() map[Ref]bool {
	seen := make(map[Ref]bool)
	var walk func(Ref)
	walk = func(r Ref) {
		if r == Nil || seen[r] {
			return
		}
		seen[r] = true
		for _, c := range s.objs[r] {
			walk(c)
		}
	}
	for _, r := range s.roots {
		walk(r)
	}
	return seen
}

// dropZone mirrors Zone.Retire: every object of the zone disappears and
// every reference to one — root or slot — reads nil afterwards.
func (s *zoneShadow) dropZone(contains func(Ref) bool) {
	for r := range s.objs {
		if contains(r) {
			delete(s.objs, r)
		}
	}
	for i, r := range s.roots {
		if r != Nil && contains(r) {
			s.roots[i] = Nil
		}
	}
	for _, refs := range s.objs {
		for i, c := range refs {
			if c != Nil && contains(c) {
				refs[i] = Nil
			}
		}
	}
}

// FuzzZoneRemset drives one byte-coded mutator script — zone rebinding,
// cross-zone wiring, per-zone collections, full rotations, whole-heap
// cycles, and zone retires — against a zone-sharded runtime while a shadow
// graph tracks exact reachability, then pins the zone collector's safety
// bound: no reachable object is ever reclaimed (checked against the shadow
// after every collection), stale remembered-set entries never survive a
// zone's collection (checkRemsetPrecision), and after one final whole-heap
// cycle the allocated set equals the reachable set exactly — floating
// cross-zone garbage and cross-zone cycles must not outlive the whole-heap
// backstop.
func FuzzZoneRemset(f *testing.F) {
	// data[0] picks the sweep mode, data[1] the zone count; 2 bytes per op.
	f.Add([]byte{0, 0, 1, 0, 1, 9, 3, 4, 5, 0, 6, 1})
	f.Add([]byte{1, 1, 0, 5, 1, 0, 3, 8, 1, 7, 3, 2, 5, 2, 6, 4})
	f.Add([]byte{2, 2, 1, 3, 2, 11, 0, 1, 1, 6, 3, 14, 7, 5, 5, 1, 4, 2})
	f.Add([]byte{0, 2, 1, 0, 2, 8, 3, 16, 1, 5, 3, 24, 7, 0, 6, 0, 7, 1, 5, 3})
	f.Add([]byte{1, 0, 1, 7, 0, 1, 1, 15, 3, 63, 2, 9, 7, 2, 5, 0, 5, 1, 6, 2, 4, 7})

	f.Fuzz(zoneRemsetScript)
}

// zoneRemsetScript is the fuzz body, shared with the deterministic
// property test below.
func zoneRemsetScript(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	zones := 2 + int(data[1])%3
	cfg := Config{
		HeapWords: 1 << 13, Mode: Infrastructure, Zones: zones,
		Handler: report.HandlerFunc(func(*report.Violation) report.Action {
			return report.Continue // retire survivors are expected, not errors
		}),
	}
	// One value in three, as when the third was the parallel sweep, so the
	// committed corpus keeps running the mode it was found under.
	cfg.LazySweep = data[0]%3 == 2
	rt := New(cfg)
	th := rt.MainThread()
	node := rt.DefineClass("FZNode", RefField("a"), RefField("b"))
	aOff, bOff := node.MustFieldIndex("a"), node.MustFieldIndex("b")
	fr := th.PushFrame(diffSlots)
	shadow := &zoneShadow{objs: make(map[Ref][]Ref)}

	checkLive := func() {
		t.Helper()
		for r := range shadow.reachable() {
			if !rt.heap.IsObject(r) {
				t.Fatalf("reachable object %d was reclaimed", r)
			}
		}
	}

	script := data[2:]
	const maxOps = 220
	ops := 0
	for n := 0; n+2 <= len(script) && ops < maxOps; n += 2 {
		code, k := script[n], script[n+1]
		slot := int(k) % diffSlots
		zi := int(k) % zones
		switch code % 8 {
		case 0: // rebind the mutator to a zone
			th.SetZone(rt.Zone(zi))
		case 1: // alloc node into slot
			r := th.New(node)
			shadow.objs[r] = make([]Ref, 2)
			shadow.roots[slot] = r
			fr.SetLocal(slot, r)
		case 2: // alloc ref array into slot
			ln := 1 + int(k)%6
			r := th.NewRefArray(ln)
			shadow.objs[r] = make([]Ref, ln)
			shadow.roots[slot] = r
			fr.SetLocal(slot, r)
		case 3: // wire slot -> slot (the cross-zone edges come from here)
			src := fr.Local(slot)
			dst := fr.Local(int(k/8) % diffSlots)
			if src == Nil {
				break
			}
			switch {
			case rt.ClassOf(src) == node:
				off, i := aOff, 0
				if k%2 == 1 {
					off, i = bOff, 1
				}
				rt.SetRef(src, off, dst)
				shadow.objs[src][i] = dst
			case rt.KindOf(src) == int(vmheap.KindRefArray):
				if n := rt.ArrLen(src); n > 0 {
					rt.ArrSetRef(src, int(k)%n, dst)
					shadow.objs[src][int(k)%n] = dst
				}
			}
		case 4: // clear slot
			shadow.roots[slot] = Nil
			fr.SetLocal(slot, Nil)
		case 5: // collect one zone; other zones' objects must be untouched
			if err := rt.Zone(zi).Collect(); err != nil {
				t.Fatalf("Zone(%d).Collect: %v", zi, err)
			}
			checkLive()
			checkRemsetPrecision(t, rt, zi)
		case 6: // full rotation, or a whole-heap cycle every fourth draw
			if k%4 == 0 {
				if err := rt.GC(); err != nil {
					t.Fatalf("GC: %v", err)
				}
			} else if err := rt.GCZones(); err != nil {
				t.Fatalf("GCZones: %v", err)
			}
			checkLive()
			for z := 0; z < zones; z++ {
				checkRemsetPrecision(t, rt, z)
			}
		case 7: // retire a zone wholesale (bulk assert-alldead)
			if _, err := rt.Zone(zi).Retire(); err != nil {
				t.Fatalf("Zone(%d).Retire: %v", zi, err)
			}
			shadow.dropZone(rt.Zone(zi).h.Contains)
			checkLive()
		}
		ops++
	}

	// The whole-heap backstop: one full cycle must reclaim everything
	// unreachable — floating cross-zone garbage, cross-zone cycles —
	// leaving allocated == reachable exactly.
	if err := rt.GC(); err != nil {
		t.Fatalf("final GC: %v", err)
	}
	want := shadow.reachable()
	got := make(map[Ref]bool)
	for _, o := range rt.LiveSet() {
		got[o.Ref] = true
	}
	for r := range want {
		if !got[r] {
			t.Fatalf("reachable object %d missing after whole-heap cycle", r)
		}
	}
	for r := range got {
		if !want[r] {
			t.Fatalf("dead object %d retained past the whole-heap cycle", r)
		}
	}
	for z := 0; z < zones; z++ {
		checkRemsetPrecision(t, rt, z)
	}
	if errs := rt.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("heap corrupt: %v", errs[0])
	}
}

// TestZoneRemsetPrecision is the deterministic, always-run form of the
// precision property (the fuzzer checks it too, but only on its corpus
// during plain `go test`): random cross-zone graph churn with interleaved
// per-zone collections, each followed by a full precision sweep of the
// collected zone's remembered set.
func TestZoneRemsetPrecision(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2+2*300)
		data[0] = byte(seed % 3) // rotate sweep modes across seeds
		data[1] = byte(rng.Intn(3))
		for i := 2; i < len(data); i++ {
			data[i] = byte(rng.Intn(256))
		}
		zoneRemsetScript(t, data)
	}
}

// TestWholeHeapLazySweepPurgesRemsets pins the defect FuzzZoneRemset found
// as a safety bug, not floating garbage: a whole-heap collection on a
// LazySweep zoned runtime used to return with a dead source's entry still in
// another zone's remembered set. The entry's target, dead too, was then
// swept and recycled by its own zone's allocator — here as the interior of a
// data array — and that zone's next collection traced through the entry into
// the array's elements.
func TestWholeHeapLazySweepPurgesRemsets(t *testing.T) {
	rt := New(Config{HeapWords: 1 << 13, Mode: Infrastructure, Zones: 2, LazySweep: true})
	th := rt.MainThread()
	node := rt.DefineClass("LZNode", RefField("a"), RefField("b"))
	fr := th.PushFrame(3)
	th.New(node) // dead filler, so the target is not the first object of zone 0
	fr.SetLocal(0, th.New(node))
	th.SetZone(rt.Zone(1))
	fr.SetLocal(1, th.New(node))
	rt.SetRef(fr.Local(1), node.MustFieldIndex("a"), fr.Local(0))
	fr.SetLocal(0, Nil)
	fr.SetLocal(1, Nil)
	if err := rt.GC(); err != nil {
		t.Fatal(err)
	}
	if e := rt.RemsetEntries(0); len(e) != 0 {
		t.Fatalf("whole-heap collection left entries of dead sources: %v", e)
	}

	const pattern = 0xdeadbeefdeadbeef // mark bit set: a header the trace would follow
	th.SetZone(rt.Zone(0))
	arr := th.NewDataArray(64)
	fr.SetLocal(2, arr)
	for i := 0; i < 64; i++ {
		rt.ArrSetData(arr, i, pattern)
	}
	if err := rt.Zone(0).Collect(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if v := rt.ArrGetData(arr, i); v != pattern {
			t.Fatalf("element %d corrupted: %#x", i, v)
		}
	}
	if errs := rt.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("heap corrupt: %v", errs[0])
	}
}
