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

	"repro/internal/classes"
	"repro/internal/report"
	"repro/internal/sidetab"
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

// Engine holds all assertion state for one runtime. It has no lock of its
// own: every method except SideTabFootprint is called under the runtime lock
// (or its single-mutator contract), the violation handler included — so
// handlers must not re-enter the runtime.
type Engine struct {
	heap    *vmheap.Heap
	reg     *classes.Registry
	handler report.Handler

	// purgeRegions is the runtime's hook over its threads' open region
	// queues: PreSweep hands it keep, so the queues drop the objects the
	// sweep is about to free. keep is e.marked bound once. nil when nothing
	// can open a region.
	purgeRegions func(keep func(vmheap.Ref) bool)
	keep         func(vmheap.Ref) bool

	// Per-collection state (cycle.go), reset by BeginCycle: the cycle's
	// sequence number, report deduplication sized by what was reported, and
	// the Halt verdict. reportedDead caches the handler's action so the
	// Force decision is applied consistently to every incoming reference of
	// the same object; reportedImproper is shared between the ownership
	// phase's improper-use reports and the root phase's unowned-ownee
	// reports, so one object yields at most one ownership warning per cycle
	// regardless of which phase sees it first.
	cycle            uint64
	reportedDead     map[vmheap.Ref]report.Action
	reportedShared   map[vmheap.Ref]bool
	reportedImproper map[vmheap.Ref]bool
	halt             *report.Violation

	// checks are the trace callouts, bound once: the tracer is handed the
	// same method values every collection.
	checks trace.Checks

	// Ownership tables. owners may contain Nil holes after an owner is
	// collected; ownerIdx maps live owner objects to their slot, and ownees
	// maps each ownee to its owner's slot. The ownership phase's lookups
	// stamp the ownee entries they find, which PreSweep reads (see there).
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

// New creates an engine bound to the given heap, registry, region-queue purge
// hook (may be nil) and violation handler.
func New(h *vmheap.Heap, reg *classes.Registry, purgeRegions func(keep func(vmheap.Ref) bool), handler report.Handler) *Engine {
	e := &Engine{
		heap:         h,
		reg:          reg,
		handler:      handler,
		purgeRegions: purgeRegions,
		ownerIdx:     sidetab.NewIndex(),
		ownees:       sidetab.NewIndex(),
	}
	e.keep = e.marked
	e.checks = trace.Checks{Dead: e.onDead, Shared: e.onShared, Unowned: e.onUnowned}
	e.phase.Ownees = e.ownees
	e.phase.Improper = e.onImproper
	return e
}

// SetHandler replaces the violation handler.
func (e *Engine) SetHandler(h report.Handler) { e.handler = h }

// SideTabFootprint reports the bytes of side structure the engine holds
// beside the heap: the two ownership indexes. The one engine method that may
// be called without the runtime lock (Runtime.Metrics scrapes it while
// mutators and collections run): each index keeps its byte count in an
// atomic.
func (e *Engine) SideTabFootprint() uint64 {
	return e.ownerIdx.Bytes() + e.ownees.Bytes()
}

// Stats returns a snapshot of assertion activity.
func (e *Engine) Stats() Stats {
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
	e.stats.DeadAsserts++
	return nil
}

// AssertUnshared implements assert-unshared(p): the object is marked with
// the unshared header bit and reported if the trace encounters it twice.
func (e *Engine) AssertUnshared(r vmheap.Ref) error {
	if err := e.checkObject(r, "assert-unshared"); err != nil {
		return err
	}
	e.heap.SetFlags(r, vmheap.FlagUnshared)
	e.stats.UnsharedAsserts++
	return nil
}

// AssertInstances implements assert-instances(T, I).
func (e *Engine) AssertInstances(c *classes.Class, limit int64, includeSubclasses bool) error {
	if limit < 0 {
		return fmt.Errorf("assertions: assert-instances: negative limit %d", limit)
	}
	e.reg.SetInstanceLimit(c, limit, includeSubclasses)
	e.stats.InstanceAsserts++
	return nil
}

// StartRegion counts a start-region(); the thread that opened it keeps the
// region's queue.
func (e *Engine) StartRegion() { e.stats.RegionsStarted++ }

// AssertAllDead implements assert-alldead() on a closed region's queue: every
// object allocated in the bracket is asserted dead (the paper implements it
// by "calling assert-dead on each object in the queue"). Objects recorded in
// the queue that died during an intervening GC were purged by the collector
// and are correctly absent.
func (e *Engine) AssertAllDead(queue []vmheap.Ref) {
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
