package core

import (
	"testing"

	"repro/internal/telemetry"
)

// TestStatsSumOverZones is the regression test for Stats() on a zoned
// runtime reporting zone 0's sweep-mode and allocation-buffer counters as the
// arena's: after a rotation and 2 000 buffered allocations in zone 1, every
// one of those counters must equal the figure an independent source — the
// collector's own count, or the telemetry recorder fed from every zone —
// holds for the whole arena.
func TestStatsSumOverZones(t *testing.T) {
	rt := New(Config{
		HeapWords: 1 << 14, Mode: Infrastructure, Zones: 2,
		LazySweep: true, AllocBuffers: 64, Telemetry: &telemetry.Config{},
	})
	node := rt.DefineClass("Node", RefField("a"))
	th := rt.MainThread()
	for i := 0; i < 2000; i++ {
		th.New(node) // zone 0 garbage, so its deferred sweep has work
	}
	if err := rt.GCZones(); err != nil {
		t.Fatalf("GCZones: %v", err)
	}
	th.SetZone(rt.Zone(1))
	for i := 0; i < 2000; i++ {
		th.New(node)
	}

	st := rt.Stats()
	m := rt.Telemetry().Metrics()
	if st.GC.ZoneCollections != 2 {
		t.Fatalf("ZoneCollections = %d, want 2 (the script no longer runs one rotation)", st.GC.ZoneCollections)
	}
	if st.Sweep.LazySweeps != st.GC.ZoneCollections {
		t.Errorf("Stats().Sweep.LazySweeps = %d after %d lazy zone collections", st.Sweep.LazySweeps, st.GC.ZoneCollections)
	}
	if st.Sweep.DemandSegments == 0 {
		t.Error("Stats().Sweep.DemandSegments = 0 after zone 1's allocator swept its pending ranges")
	}
	var segments uint64
	for _, p := range m.Phases {
		if p.Phase == telemetry.PhaseLazySegment.String() {
			segments = p.Count
		}
	}
	if got := st.Sweep.DemandSegments + st.Sweep.CompletionSegments; got != segments {
		t.Errorf("Stats().Sweep counts %d deferred range sweeps, telemetry recorded %d", got, segments)
	}
	if st.Heap.BufferCarves != m.Carves {
		t.Errorf("Stats().Heap.BufferCarves = %d, telemetry recorded %d carves", st.Heap.BufferCarves, m.Carves)
	}
	if st.Heap.BufferAllocs != st.Heap.TotalAllocs {
		t.Errorf("Stats().Heap.BufferAllocs = %d of %d allocations, all of them buffered", st.Heap.BufferAllocs, st.Heap.TotalAllocs)
	}
}
