package core

import (
	"errors"
	"fmt"
)

// ErrAssertionsDisabled is returned by every assertion entry point when the
// runtime is in Base mode (the unmodified collector has no assertion
// infrastructure).
var ErrAssertionsDisabled = errors.New("core: assertions require Infrastructure mode")

// Registration is a snapshot-boundary operation: it flips header bits,
// instance limits, or region queues that an in-flight trace has partially
// observed. Every registering entry point therefore completes an open cycle
// first (settleCycleLocked) — its snapshot predates the registration, so it is
// checked and swept exactly as a stop-the-world collection completes before
// the program can register anything new, and the new assertion is judged at
// the next collection. A *report.HaltError from that completion is returned
// and the registration does not happen; the caller observes the halt just as
// it would from the collection call itself.

// AssertDead asserts that obj will be reclaimed by the next full
// collection: if the collector finds it reachable, a DeadReachable
// violation with the complete heap path is reported.
func (rt *Runtime) AssertDead(obj Ref) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.assertDeadLocked(obj)
}

// AssertDead asserts the object in local slot i dead and clears the slot,
// under one hold of the runtime lock: no collection sees the frame rooting
// an object it must report unreachable (DESIGN.md §11).
func (f Frame) AssertDead(i int) error {
	rt := f.t.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	slot := f.at(i)
	if err := rt.assertDeadLocked(*slot); err != nil {
		return err
	}
	*slot = Nil
	return nil
}

func (rt *Runtime) assertDeadLocked(obj Ref) error {
	if rt.engine == nil {
		return ErrAssertionsDisabled
	}
	if err := rt.settleCycleLocked(); err != nil {
		return err
	}
	return rt.engine.AssertDead(obj)
}

// AssertUnshared asserts that obj has at most one incoming pointer: if a
// trace encounters it twice, a SharedObject violation is reported with the
// second path.
func (rt *Runtime) AssertUnshared(obj Ref) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.engine == nil {
		return ErrAssertionsDisabled
	}
	if err := rt.settleCycleLocked(); err != nil {
		return err
	}
	return rt.engine.AssertUnshared(obj)
}

// AssertInstances asserts that at most limit instances of c are live at
// each full collection. Passing 0 asserts that no instances exist at GC
// time. The limit counts exact types, as in the paper.
func (rt *Runtime) AssertInstances(c *Class, limit int64) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.engine == nil {
		return ErrAssertionsDisabled
	}
	if err := rt.settleCycleLocked(); err != nil {
		return err
	}
	return rt.engine.AssertInstances(c, limit, false)
}

// AssertInstancesIncludingSubclasses is AssertInstances with the count
// widened to all subclasses of c (an extension beyond the paper).
func (rt *Runtime) AssertInstancesIncludingSubclasses(c *Class, limit int64) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.engine == nil {
		return ErrAssertionsDisabled
	}
	if err := rt.settleCycleLocked(); err != nil {
		return err
	}
	return rt.engine.AssertInstances(c, limit, true)
}

// AssertOwnedBy asserts that ownee never outlives owner: at every full
// collection, if ownee is reachable, at least one path to it must pass
// through owner. Owner regions must be disjoint (see the paper's Section
// 2.5.2); structurally conflicting registrations are rejected.
func (rt *Runtime) AssertOwnedBy(owner, ownee Ref) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.engine == nil {
		return ErrAssertionsDisabled
	}
	if err := rt.settleCycleLocked(); err != nil {
		return err
	}
	return rt.engine.AssertOwnedBy(owner, ownee)
}

// StartRegion opens an assert-alldead bracket on this thread: every object
// the thread allocates until the matching AssertAllDead is recorded.
func (t *Thread) StartRegion() error {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if t.rt.engine == nil {
		return ErrAssertionsDisabled
	}
	// Buffered mode: objects bump-allocated so far belong to the enclosing
	// bracket (if any); record them there before the new bracket opens,
	// then restart the batch for the new bracket.
	t.flushRegionRecords()
	t.regions = append(t.regions, nil)
	t.rt.engine.StartRegion()
	if t.buf.Active() {
		t.regionFrom = t.buf.Pos()
	}
	return nil
}

// AssertAllDead closes the innermost region bracket and asserts every
// object allocated within it dead: any of them still reachable at the next
// full collection is reported as a RegionSurvivor violation.
func (t *Thread) AssertAllDead() error {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if t.rt.engine == nil {
		return ErrAssertionsDisabled
	}
	if err := t.rt.settleCycleLocked(); err != nil {
		return err
	}
	// Buffered mode: the closing bracket's batched allocations must be in
	// its queue before it is sealed.
	t.flushRegionRecords()
	n := len(t.regions)
	if n == 0 {
		return fmt.Errorf("core: assert-alldead on %s without start-region", t.name)
	}
	queue := t.regions[n-1]
	t.regions = t.regions[:n-1]
	t.rt.engine.AssertAllDead(queue)
	return nil
}
