package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/report"
)

// TestZoneDifferential drives one deterministic mutator script against
// three runtimes — unzoned with whole-heap collections, zone-sharded with
// whole-heap collections, and zone-sharded with per-zone rotations
// (GCZones) — and requires identical observable behavior at the final
// quiescent point: the same live objects by script-assigned id and the
// same assertion verdicts, across all four collector modes (serial eager
// sweep, parallel sweep, lazy sweep, concurrent pacer).
//
// The comparison is shaped around the rotation's precision contract
// (see GCZones): the final verdict-producing rotation starts from a
// garbage-free state, where per-zone collection must be verdict- and
// free-identical to a whole-heap collection. The conservative cases —
// floating cross-zone garbage and cross-zone garbage cycles — are pinned
// separately by the deterministic chain tests below and bounded by
// FuzzZoneRemset.
func TestZoneDifferential(t *testing.T) {
	for _, mode := range zoneDiffModes() {
		for seed := int64(1); seed <= 3; seed++ {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s_seed%d", mode.name, seed), func(t *testing.T) {
				runZoneDifferential(t, mode, seed)
			})
		}
	}
}

const zdZones = 3

type zoneMode struct {
	name string
	cfg  func() Config
}

// zoneDiffModes returns the four collector configurations the zone layer
// must behave identically under. Zones require the mark-sweep collector;
// the modes vary how its sweep and scheduling run.
func zoneDiffModes() []zoneMode {
	base := func() Config {
		return Config{HeapWords: 1 << 14, Mode: Infrastructure, Collector: MarkSweep}
	}
	return []zoneMode{
		{"serial", base},
		{"lazysweep", func() Config { c := base(); c.LazySweep = true; return c }},
		{"concurrent", func() Config {
			c := base()
			c.ConcurrentGC = true
			c.GCTriggerFraction = 0.4
			c.GCAssistSlack = 0.5
			c.AllocBuffers = 128
			return c
		}},
	}
}

// zoneDiffWorld wraps diffWorld with a zone-aware op dispatch: op codes
// below 8 rebind the mutator thread to a zone (a no-op in the unzoned
// world), and explicit collections go through GCZones when rotate is set —
// or through GCZonesConcurrent when workers > 0 (the rotation-width
// differential, parzonediff_test.go).
type zoneDiffWorld struct {
	*diffWorld
	rotate  bool
	workers int
}

func newZoneDiffWorld(cfg Config, zones int, rotate bool) *zoneDiffWorld {
	cfg.Zones = zones
	return &zoneDiffWorld{diffWorld: newDiffWorldCfg(cfg), rotate: rotate}
}

func (w *zoneDiffWorld) collect(t *testing.T) {
	t.Helper()
	var err error
	switch {
	case w.workers > 0:
		err = w.rt.GCZonesConcurrent(w.workers)
	case w.rotate:
		err = w.rt.GCZones()
	default:
		err = w.rt.GC()
	}
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
}

func (w *zoneDiffWorld) apply(t *testing.T, op diffOp) {
	t.Helper()
	switch {
	case op.code < 8: // rebind the mutator to a zone
		if w.rt.ZoneCount() > 1 {
			w.th.SetZone(w.rt.Zone(int(op.b) % w.rt.ZoneCount()))
		}
	case op.code >= 96: // explicit collection (rotation in the zoned-rotate world)
		w.collect(t)
	default:
		w.diffWorld.apply(t, op)
	}
}

func runZoneDifferential(t *testing.T, mode zoneMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	script := make([]diffOp, 2000)
	for i := range script {
		script[i] = diffOp{byte(rng.Intn(100)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	regChoice := make([]int, diffSlots)
	for s := range regChoice {
		regChoice[s] = rng.Intn(3)
	}
	limit := int64(rng.Intn(4))

	plain := newZoneDiffWorld(mode.cfg(), 0, false)
	zfull := newZoneDiffWorld(mode.cfg(), zdZones, false)
	zrot := newZoneDiffWorld(mode.cfg(), zdZones, true)
	worlds := []*zoneDiffWorld{plain, zfull, zrot}
	for _, op := range script {
		for _, w := range worlds {
			w.apply(t, op)
		}
	}

	for _, w := range worlds {
		// Quiesce: stop the pacer (no-op otherwise), then one whole-heap
		// collection so every world reaches the same garbage-free state by
		// script id — the rotation's exactness precondition.
		if err := w.rt.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := w.rt.GC(); err != nil {
			t.Fatalf("quiesce GC: %v", err)
		}
		for s, c := range regChoice {
			r := w.fr.Local(s)
			if r == Nil {
				continue
			}
			switch c {
			case 0:
				if err := w.rt.AssertDead(r); err != nil {
					t.Fatalf("AssertDead: %v", err)
				}
				w.fr.SetLocal(s, Nil)
			case 1:
				if err := w.rt.AssertUnshared(r); err != nil {
					t.Fatalf("AssertUnshared: %v", err)
				}
			}
		}
		if err := w.rt.AssertInstances(w.node, limit); err != nil {
			t.Fatalf("AssertInstances: %v", err)
		}
		// First verdict pass is whole-heap everywhere: it settles the deaths
		// created by dropping roots above, which may leave cross-zone garbage
		// chains or cycles — exactly the states where a rotation is allowed
		// to be conservative. The second pass then starts garbage-free, where
		// the rotation must re-report verdicts identically to a whole-heap
		// collection: same dead-reachable set, same sharing encounters (one
		// per remembered-set slot), same instance totals across zones.
		if err := w.rt.GC(); err != nil {
			t.Fatalf("settling GC: %v", err)
		}
		w.collect(t)
	}

	want := drainSorted(plain.diffWorld)
	for _, w := range worlds[1:] {
		if got := drainSorted(w.diffWorld); !reflect.DeepEqual(want, got) {
			t.Fatalf("assertion verdicts differ (rotate=%v):\nplain: %v\nzoned: %v",
				w.rotate, want, got)
		}
	}
	wantLive := plain.liveIDs(t)
	for _, w := range worlds[1:] {
		if got := w.liveIDs(t); !reflect.DeepEqual(wantLive, got) {
			t.Fatalf("live sets differ (rotate=%v):\nplain: %v\nzoned: %v",
				w.rotate, wantLive, got)
		}
	}
	for _, w := range worlds {
		if errs := w.rt.VerifyHeap(); len(errs) != 0 {
			t.Fatalf("heap corrupt (rotate=%v): %v", w.rotate, errs[0])
		}
	}
	if n := zrot.rt.Stats().GC.ZoneCollections; n < zdZones {
		t.Fatalf("rotation world ran only %d zone collections", n)
	}
}

// --- deterministic precision tests -----------------------------------------

func newZoneChainRT(t *testing.T) (*Runtime, *Thread, *Frame, *Class, uint16) {
	t.Helper()
	rt := New(Config{HeapWords: 1 << 12, Mode: Infrastructure, Zones: 3})
	th := rt.MainThread()
	node := rt.DefineClass("ZNode", RefField("next"))
	fr := th.PushFrame(4)
	return rt, th, fr, node, node.MustFieldIndex("next")
}

func allocInZone(rt *Runtime, th *Thread, node *Class, z int) Ref {
	th.SetZone(rt.Zone(z))
	return th.New(node)
}

func liveContains(rt *Runtime, r Ref) bool {
	for _, o := range rt.LiveSet() {
		if o.Ref == r {
			return true
		}
	}
	return false
}

// TestZoneForwardChainReclaim: a garbage chain whose cross-zone edges point
// from lower to higher zones dies within ONE rotation, because zones are
// collected in ascending order: each source is swept (purging its
// remembered-set entry) before the target's zone is collected.
func TestZoneForwardChainReclaim(t *testing.T) {
	rt, th, fr, node, off := newZoneChainRT(t)
	a := allocInZone(rt, th, node, 0)
	b := allocInZone(rt, th, node, 1)
	c := allocInZone(rt, th, node, 2)
	fr.SetLocal(0, a)
	rt.SetRef(a, off, b)
	rt.SetRef(b, off, c)
	if n1, n2 := len(rt.RemsetEntries(1)), len(rt.RemsetEntries(2)); n1 != 1 || n2 != 1 {
		t.Fatalf("remset entries = %d,%d, want 1,1", n1, n2)
	}
	fr.SetLocal(0, Nil)
	if err := rt.GCZones(); err != nil {
		t.Fatalf("GCZones: %v", err)
	}
	for _, r := range []Ref{a, b, c} {
		if liveContains(rt, r) {
			t.Fatalf("object %d survived one rotation of a forward chain", r)
		}
	}
	if n1, n2 := len(rt.RemsetEntries(1)), len(rt.RemsetEntries(2)); n1 != 0 || n2 != 0 {
		t.Fatalf("stale remset entries after reclaim: %d,%d", n1, n2)
	}
}

// TestZoneBackwardChainFloat pins the documented conservative bound: a
// garbage source in a HIGHER zone keeps its lower-zone target alive for
// exactly one extra rotation (the target's zone is collected before the
// source is swept), and the next rotation reclaims it.
func TestZoneBackwardChainFloat(t *testing.T) {
	rt, th, fr, node, off := newZoneChainRT(t)
	a := allocInZone(rt, th, node, 2)
	b := allocInZone(rt, th, node, 0)
	fr.SetLocal(0, a)
	rt.SetRef(a, off, b) // backward cross-zone edge: zone 2 -> zone 0
	fr.SetLocal(0, Nil)
	if err := rt.GCZones(); err != nil {
		t.Fatalf("GCZones: %v", err)
	}
	if liveContains(rt, a) {
		t.Fatalf("garbage source a survived its own zone's collection")
	}
	if !liveContains(rt, b) {
		t.Fatalf("b reclaimed in the same rotation that swept its source — " +
			"the remembered set must be conservative, not prescient")
	}
	if err := rt.GCZones(); err != nil {
		t.Fatalf("second GCZones: %v", err)
	}
	if liveContains(rt, b) {
		t.Fatalf("floating target b survived a second rotation")
	}
}

// TestZoneCycleNeedsWholeHeap: a garbage cycle spanning zones is invisible
// to per-zone collection (each side roots the other through the remembered
// set) and is reclaimed only by a whole-heap collection — the classic
// regional-collector backstop.
func TestZoneCycleNeedsWholeHeap(t *testing.T) {
	rt, th, fr, node, off := newZoneChainRT(t)
	x := allocInZone(rt, th, node, 0)
	y := allocInZone(rt, th, node, 1)
	fr.SetLocal(0, x)
	rt.SetRef(x, off, y)
	rt.SetRef(y, off, x)
	fr.SetLocal(0, Nil)
	for i := 0; i < 2; i++ {
		if err := rt.GCZones(); err != nil {
			t.Fatalf("GCZones: %v", err)
		}
		if !liveContains(rt, x) || !liveContains(rt, y) {
			t.Fatalf("cross-zone cycle reclaimed by rotation %d", i+1)
		}
	}
	if err := rt.GC(); err != nil {
		t.Fatalf("GC: %v", err)
	}
	if liveContains(rt, x) || liveContains(rt, y) {
		t.Fatalf("cross-zone cycle survived a whole-heap collection")
	}
	if n0, n1 := len(rt.RemsetEntries(0)), len(rt.RemsetEntries(1)); n0 != 0 || n1 != 0 {
		t.Fatalf("stale remset entries after whole-heap reclaim: %d,%d", n0, n1)
	}
}

// TestZoneRotationEscalatesOnce: ownership is a whole-heap property, so while
// an ownership assertion is registered a rotation stands every zone down and
// runs ONE whole-heap collection in their place — at any width, not one per
// zone.
func TestZoneRotationEscalatesOnce(t *testing.T) {
	w := newDiffWorldCfg(Config{HeapWords: 1 << 14, Mode: Infrastructure, Zones: 4})
	owner, ownee := w.th.New(w.node), w.th.New(w.node)
	w.fr.SetLocal(0, owner)
	w.rt.SetRef(owner, w.aOff, ownee)
	if err := w.rt.AssertOwnedBy(owner, ownee); err != nil {
		t.Fatal(err)
	}
	for _, rotate := range []struct {
		name string
		run  func() error
	}{
		{"GCZones", w.rt.GCZones},
		{"GCZonesConcurrent(4)", func() error { return w.rt.GCZonesConcurrent(4) }},
	} {
		before := w.rt.Stats().GC
		if err := rotate.run(); err != nil {
			t.Fatalf("%s: %v", rotate.name, err)
		}
		after := w.rt.Stats().GC
		if full, zone := after.FullCollections-before.FullCollections, after.ZoneCollections-before.ZoneCollections; full != 1 || zone != 0 {
			t.Errorf("%s: %d whole-heap and %d zone collections, want 1 and 0", rotate.name, full, zone)
		}
	}
	if vs := w.rt.Violations(); len(vs) != 0 {
		t.Errorf("violations on a properly owned object: %v", vs)
	}
}

// --- Zone.Retire vs per-object death ---------------------------------------

// TestZoneRetireEquivalence builds the same heap in two worlds — zone 1
// populated inside a region bracket, with some objects referenced from
// zone 0 objects, an array slot, and a frame root — and requires that
// Zone.Retire report exactly the RegionSurvivor set an assert-alldead
// bracket checked by a collection reports, when every survivor is directly
// referenced from outside the zone. Retire additionally empties the zone
// and nulls the referencing slots; the bracket world keeps its survivors
// alive. Both invariants are checked.
func TestZoneRetireEquivalence(t *testing.T) {
	type retireWorld struct {
		*diffWorld
		holder, arr Ref
		objs        []Ref
	}
	build := func() *retireWorld {
		w := &retireWorld{diffWorld: newDiffWorldCfg(
			Config{HeapWords: 1 << 13, Mode: Infrastructure, Zones: 3})}
		th, rt, fr := w.th, w.rt, w.fr
		th.SetZone(rt.Zone(0))
		w.holder = w.record(th.New(w.node))
		fr.SetLocal(0, w.holder)
		w.arr = w.record(th.NewRefArray(4))
		fr.SetLocal(1, w.arr)
		th.SetZone(rt.Zone(1))
		if err := th.StartRegion(); err != nil {
			t.Fatalf("StartRegion: %v", err)
		}
		w.objs = make([]Ref, 5)
		for i := range w.objs {
			w.objs[i] = w.record(th.New(w.node))
		}
		if err := th.AssertAllDead(); err != nil {
			t.Fatalf("AssertAllDead: %v", err)
		}
		rt.SetRef(w.holder, w.aOff, w.objs[0]) // survivor: cross-zone field
		rt.ArrSetRef(w.arr, 2, w.objs[1])      // survivor: cross-zone array slot
		fr.SetLocal(2, w.objs[2])              // survivor: frame root
		// objs[3], objs[4] are unreferenced and must die silently.
		th.SetZone(rt.Zone(0))
		return w
	}

	bracket, retire := build(), build()
	if err := bracket.rt.GC(); err != nil {
		t.Fatalf("bracket GC: %v", err)
	}
	n, err := retire.rt.Zone(1).Retire()
	if err != nil {
		t.Fatalf("Retire: %v", err)
	}
	if n != 3 {
		t.Fatalf("Retire reported %d survivors, want 3", n)
	}
	if a, b := drainSorted(bracket.diffWorld), drainSorted(retire.diffWorld); !reflect.DeepEqual(a, b) {
		t.Fatalf("survivor verdicts differ:\nbracket: %v\nretire:  %v", a, b)
	}

	// The bracket world keeps its survivors (they are reachable); the retire
	// world's zone is empty and every referencing slot was nulled.
	for _, r := range []Ref{retire.objs[0], retire.objs[1], retire.objs[2]} {
		if liveContains(retire.rt, r) {
			t.Fatalf("retired object %d still allocated", r)
		}
	}
	if !liveContains(bracket.rt, bracket.objs[0]) {
		t.Fatalf("bracket survivor freed by collection")
	}
	if got := retire.rt.GetRef(retire.holder, retire.aOff); got != Nil {
		t.Fatalf("holder field not nulled by retire: %d", got)
	}
	if got := retire.rt.ArrGetRef(retire.arr, 2); got != Nil {
		t.Fatalf("array slot not nulled by retire: %d", got)
	}
	if got := retire.fr.Local(2); got != Nil {
		t.Fatalf("frame root not nulled by retire: %d", got)
	}
	if z := retire.rt.Stats().Zones[1]; z.LiveObjects != 0 || z.LiveWords != 0 {
		t.Fatalf("zone 1 not empty after retire: %+v", z)
	}
	if got := retire.rt.Stats().GC.ZoneRetires; got != 1 {
		t.Fatalf("ZoneRetires = %d, want 1", got)
	}
	if len(retire.rt.RemsetEntries(1)) != 0 {
		t.Fatalf("remset entries into retired zone survived")
	}
	for _, w := range []*retireWorld{bracket, retire} {
		if errs := w.rt.VerifyHeap(); len(errs) != 0 {
			t.Fatalf("heap corrupt: %v", errs[0])
		}
	}
	// After the retire, the zone is immediately reusable.
	retire.th.SetZone(retire.rt.Zone(1))
	r := retire.th.New(retire.node)
	if !retire.rt.Zone(1).h.Contains(r) {
		t.Fatalf("post-retire allocation landed outside zone 1")
	}
}

// TestZoneRetireTransitive pins the intended asymmetry: Retire reports only
// objects DIRECTLY referenced from outside the zone, and reclaims objects
// that were reachable only through them (a bracketed collection would have
// reported those too, since they are transitively reachable).
func TestZoneRetireTransitive(t *testing.T) {
	w := newDiffWorldCfg(Config{HeapWords: 1 << 13, Mode: Infrastructure, Zones: 3})
	th, rt, fr := w.th, w.rt, w.fr
	th.SetZone(rt.Zone(0))
	holder := w.record(th.New(w.node))
	fr.SetLocal(0, holder)
	th.SetZone(rt.Zone(1))
	direct := w.record(th.New(w.node))
	indirect := w.record(th.New(w.node))
	rt.SetRef(holder, w.aOff, direct)
	rt.SetRef(direct, w.bOff, indirect) // in-zone edge only
	th.SetZone(rt.Zone(0))

	n, err := rt.Zone(1).Retire()
	if err != nil {
		t.Fatalf("Retire: %v", err)
	}
	if n != 1 {
		t.Fatalf("Retire reported %d survivors, want 1 (the direct one)", n)
	}
	want := []string{fmt.Sprintf("%v|DNode#%d|0/0", report.RegionSurvivor, w.ids[direct])}
	if got := drainSorted(w); !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts = %v, want %v", got, want)
	}
	for _, r := range []Ref{direct, indirect} {
		if liveContains(rt, r) {
			t.Fatalf("zone object %d survived retire", r)
		}
	}
	if errs := rt.VerifyHeap(); len(errs) != 0 {
		t.Fatalf("heap corrupt: %v", errs[0])
	}
}
