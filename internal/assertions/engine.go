// Package assertions implements the GC-assertion engine: the bookkeeping
// behind the five assertions of the paper (assert-dead, start-region /
// assert-alldead, assert-instances, assert-unshared, assert-ownedby), the
// violation construction with full heap paths, and the table maintenance
// the collector performs around each cycle.
//
// The engine's state mirrors the paper's metadata budget: lifetime and
// sharing assertions live entirely in spare object-header bits; instance
// limits live in two words on the class; ownership lives in one hash index
// sized by the number of ownees (the paper keeps a sorted array; DESIGN.md
// records why this departs from it).
package assertions

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/sidetab"
	"repro/internal/threads"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// Stats counts assertion activity over the lifetime of a runtime.
type Stats struct {
	DeadAsserts     uint64 // assert-dead calls (including region-driven ones)
	UnsharedAsserts uint64
	OwnedByAsserts  uint64
	InstanceAsserts uint64
	RegionsStarted  uint64
	RegionsEnded    uint64
	Violations      uint64
	// OwneesLive is the current ownee-table size.
	OwneesLive int
}

// Engine holds all assertion state for one runtime.
type Engine struct {
	heap    *vmheap.Heap
	reg     *classes.Registry
	threads *threads.Set
	handler report.Handler

	cycle atomic.Uint64

	// mu guards the engine's shared, long-lived tables (the region queues
	// of every thread, ownership, stats) and the handler chain against
	// concurrent zone collections. It is a near-leaf lock: acquired after
	// the runtime lock and the zone locks, and nothing is acquired under it.
	// Per-collection state lives on a Cycle and needs no lock (see cycle.go).
	mu sync.Mutex

	// defaultCycle is the cycle used by whole-heap collections (and
	// Zone.Retire): BeginCycle resets it in place, and Checks/Halted are
	// bound to it. Zone collections create private cycles with NewCycle.
	defaultCycle *Cycle

	// Ownership tables. owners may contain Nil holes after an owner is
	// collected; ownerIdx maps live owner objects to their slot, and ownees
	// maps each ownee to its owner's slot. The ownership phase's lookups
	// stamp the ownee entries they find, which PreSweep reads (see there).
	// Guarded by e.mu outside collections — ownership assertions always
	// escalate to whole-heap collections, so these tables see no zone
	// concurrency.
	owners   []vmheap.Ref
	ownerIdx *sidetab.Index
	ownees   *sidetab.Index

	// Per-collection scratch kept across cycles so a collection that
	// reports nothing allocates nothing: the phase descriptor handed to the
	// tracer and PreSweep's dying-owner buffers.
	phase     trace.OwnershipPhase
	deadOwner []bool
	dying     []vmheap.Ref

	stats Stats
}

// New creates an engine bound to the given heap, registry, thread set and
// violation handler.
func New(h *vmheap.Heap, reg *classes.Registry, ts *threads.Set, handler report.Handler) *Engine {
	e := &Engine{
		heap:     h,
		reg:      reg,
		threads:  ts,
		handler:  handler,
		ownerIdx: sidetab.NewIndex(),
		ownees:   sidetab.NewIndex(),
	}
	// The initial default cycle exists so pre-collection paths never see a
	// nil cycle; it must NOT consume a sequence number — the first real
	// collection's BeginCycle is cycle 1, as reports have always numbered.
	e.defaultCycle = e.newCycle(0)
	e.phase.Ownees = e.ownees
	e.phase.Improper = e.defaultCycle.onImproper
	return e
}

// SetHandler replaces the violation handler.
func (e *Engine) SetHandler(h report.Handler) { e.handler = h }

// Guard exposes the engine's table lock so the runtime can serialize its
// own touches of engine-shared state (thread creation, region-queue
// recording on the allocation path) against concurrent zone collections.
func (e *Engine) Guard() *sync.Mutex { return &e.mu }

// SideTabFootprint reports the bytes of side structure the engine holds
// beside the heap: the two ownership indexes. Safe concurrently with
// collections.
func (e *Engine) SideTabFootprint() uint64 {
	return e.ownerIdx.Bytes() + e.ownees.Bytes()
}

// Stats returns a snapshot of assertion activity.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.OwneesLive = e.ownees.Len()
	return s
}

// ---------------------------------------------------------------------------
// Assertion entry points (called by the runtime on behalf of the mutator)

// errNotObject is wrapped by assertion entry points handed a bad reference.
var errNotObject = errors.New("reference does not point to an allocated object")

func (e *Engine) checkObject(r vmheap.Ref, what string) error {
	if !e.heap.IsObject(r) {
		return fmt.Errorf("assertions: %s: %w", what, errNotObject)
	}
	return nil
}

// AssertDead implements assert-dead(p): the object is marked with the dead
// header bit and reported if still reachable at the next collection.
func (e *Engine) AssertDead(r vmheap.Ref) error {
	if err := e.checkObject(r, "assert-dead"); err != nil {
		return err
	}
	e.heap.SetFlags(r, vmheap.FlagDead)
	e.mu.Lock()
	e.stats.DeadAsserts++
	e.mu.Unlock()
	return nil
}

// AssertUnshared implements assert-unshared(p): the object is marked with
// the unshared header bit and reported if the trace encounters it twice.
func (e *Engine) AssertUnshared(r vmheap.Ref) error {
	if err := e.checkObject(r, "assert-unshared"); err != nil {
		return err
	}
	e.heap.SetFlags(r, vmheap.FlagUnshared)
	e.mu.Lock()
	e.stats.UnsharedAsserts++
	e.mu.Unlock()
	return nil
}

// AssertInstances implements assert-instances(T, I).
func (e *Engine) AssertInstances(c *classes.Class, limit int64, includeSubclasses bool) error {
	if limit < 0 {
		return fmt.Errorf("assertions: assert-instances: negative limit %d", limit)
	}
	e.reg.SetInstanceLimit(c, limit, includeSubclasses)
	e.mu.Lock()
	e.stats.InstanceAsserts++
	e.mu.Unlock()
	return nil
}

// StartRegion implements start-region() on the given thread.
func (e *Engine) StartRegion(t *threads.Thread) {
	e.mu.Lock()
	t.StartRegion()
	e.stats.RegionsStarted++
	e.mu.Unlock()
}

// AssertAllDead implements assert-alldead(): every object allocated in the
// innermost region bracket is asserted dead (the paper implements it by
// "calling assert-dead on each object in the queue"). Objects recorded in
// the queue that died during an intervening GC were purged by the collector
// and are correctly absent.
func (e *Engine) AssertAllDead(t *threads.Thread) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	queue, err := t.EndRegion()
	if err != nil {
		return err
	}
	e.stats.RegionsEnded++
	for _, r := range queue {
		if !e.heap.IsObject(r) {
			continue // reclaimed, or its Ref now points into a free chunk
		}
		// Region standing is a header bit beside the dead bit, so it is
		// freed and recycled with the object and never outlives it.
		e.heap.SetFlags(r, vmheap.FlagDead|vmheap.FlagRegion)
		e.stats.DeadAsserts++
	}
	return nil
}

// AssertOwnedBy implements assert-ownedby(p, q): the ownee q must remain
// reachable through the owner p for as long as it is reachable at all.
// The paper requires owner regions to be disjoint; the engine rejects
// configurations that structurally violate that (an object serving as both
// owner and ownee, or an ownee with two different owners).
func (e *Engine) AssertOwnedBy(owner, ownee vmheap.Ref) error {
	if err := e.checkObject(owner, "assert-ownedby owner"); err != nil {
		return err
	}
	if err := e.checkObject(ownee, "assert-ownedby ownee"); err != nil {
		return err
	}
	if owner == ownee {
		return errors.New("assertions: assert-ownedby: object cannot own itself")
	}
	if e.heap.Flags(owner, vmheap.FlagOwnee) != 0 {
		return errors.New("assertions: assert-ownedby: owner is already an ownee of another owner")
	}
	if e.heap.Flags(ownee, vmheap.FlagOwner) != 0 {
		return errors.New("assertions: assert-ownedby: ownee is already an owner")
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	idx, known := e.ownerIdx.Get(uint32(owner))
	if !known {
		idx = int32(len(e.owners))
	}
	if got, fresh := e.ownees.Insert(uint32(ownee), idx); !fresh {
		if got == idx {
			return nil // duplicate assertion: no-op
		}
		return errors.New("assertions: assert-ownedby: ownee already has a different owner")
	}
	if !known {
		e.owners = append(e.owners, owner)
		e.ownerIdx.Insert(uint32(owner), idx)
		e.heap.SetFlags(owner, vmheap.FlagOwner)
	}
	e.heap.SetFlags(ownee, vmheap.FlagOwnee)
	e.stats.OwnedByAsserts++
	return nil
}

// HasOwnership reports whether any owner/ownee pairs are registered; the
// collector skips the ownership phase entirely when false.
func (e *Engine) HasOwnership() bool { return e.ownees.Len() > 0 }

// NumOwners returns the number of owner slots (including holes).
func (e *Engine) NumOwners() int { return len(e.owners) }

// NumOwnees returns the current ownee-table size.
func (e *Engine) NumOwnees() int { return e.ownees.Len() }
