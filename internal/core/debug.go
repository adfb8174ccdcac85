package core

import "repro/internal/vmheap"

// Debug introspection used by the differential tests (two collector modes
// must leave behind identical heaps) and available to tools.

// LiveObject describes one allocated object in a LiveSet dump.
type LiveObject struct {
	Ref   Ref
	Class string
	Words uint32
}

// LiveSet returns every allocated object in ascending address order.
// Censuses, snapshots and the leak-detector baselines read it rather than
// walking the heap themselves. Unreachable objects linger until the next
// collection, so tools wanting the live heap run GC first.
func (rt *Runtime) LiveSet() []LiveObject {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.flushAllocBuffers()
	var out []LiveObject
	rt.heap.Iterate(func(r vmheap.Ref, hd uint64) {
		out = append(out, LiveObject{
			Ref:   r,
			Class: rt.reg.Name(vmheap.DecodeClassID(hd)),
			Words: vmheap.DecodeSizeWords(hd),
		})
	})
	return out
}

// HeaderFlags returns the raw header flag bits of the object at r (see
// vmheap's Flag constants). Tool-grade: tests use it to observe assertion
// bits (dead, unshared, ownee) and collection bits (mark, scanned) directly.
func (rt *Runtime) HeaderFlags(r Ref) uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.heap.Flags(r, ^uint64(0))
}

// FreeChunks returns the heap's free-list contents in the allocator's
// deterministic bin order.
func (rt *Runtime) FreeChunks() []vmheap.FreeChunk {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.flushAllocBuffers()
	return rt.heap.FreeChunks()
}

// SetDebugChecks toggles the heap's free-list integrity verification,
// which then runs after every sweep pass and panics on the first
// violation. Process-wide; the differential and fuzz tests enable it so
// every sweep self-checks. A runtime created while it is on also checks the
// single-mutator contract (Runtime.mutators) until NewThread runs.
func SetDebugChecks(on bool) { vmheap.DebugChecks = on }
