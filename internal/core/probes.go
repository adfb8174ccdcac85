package core

import (
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vmheap"
)

// Heap probes: immediate, synchronous queries about the current heap.
//
// The paper contrasts GC assertions with QVM's heap probes, which answer
// at the exact program point by paying for a traversal right away. These
// probes provide that complementary interface on the same runtime: a
// ProbeReachable call runs a dedicated trace immediately (cost: one mark
// pass, no reclamation), where an assertion defers the question to the
// next collection for near-zero cost. They also implement the paper's
// motivating question — "Will this object be reclaimed during the next
// garbage collection?" — as a direct query.

// ProbeReachable reports whether obj is currently reachable from the
// roots, and, when it is, the path that reaches it (the same form as a
// violation path). The probe runs a full marking pass immediately — the
// QVM-style cost the paper's deferred assertions avoid.
func (rt *Runtime) ProbeReachable(obj Ref) (bool, []PathStep) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.flushAllocBuffers()
	if !rt.heap.IsObject(obj) {
		return false, nil
	}

	// Run an Infrastructure-style trace with a dead-check hook on a
	// temporarily set dead bit: the tracer reports the path the moment
	// the object is encountered. The probe must leave all assertion
	// state untouched, so the prior dead bit is preserved.
	hadDead := rt.heap.Flags(obj, vmheap.FlagDead) != 0
	rt.heap.SetFlags(obj, vmheap.FlagDead)

	tr := trace.New(rt.heap, rt.reg)
	var found bool
	var path []vmheap.Ref
	tr.SetChecks(trace.Checks{
		Dead: func(r vmheap.Ref, p func() []vmheap.Ref) report.Action {
			if r == obj && !found {
				found = true
				path = p()
			}
			return report.Continue
		},
	})
	tr.TraceInfra(rt.rootSpans())
	rt.heap.ClearMarks(0)
	if !hadDead {
		rt.heap.ClearFlags(obj, vmheap.FlagDead)
	}
	// The probe trace counted instances of tracked classes; discard those
	// counts so the next collection's limit check is not doubled.
	rt.reg.CheckLimits()

	if !found {
		return false, nil
	}
	steps := make([]PathStep, len(path))
	for i, r := range path {
		steps[i] = PathStep{Class: rt.reg.Name(rt.heap.ClassID(r)), Ref: r}
	}
	return true, steps
}

// PathStep is one hop of a probe-reported heap path.
type PathStep struct {
	Class string
	Ref   Ref
}

// ProbeWillBeReclaimed answers the paper's introductory question — "Will
// this object be reclaimed during the next garbage collection?" — right
// now, at probe cost.
func (rt *Runtime) ProbeWillBeReclaimed(obj Ref) bool {
	reachable, _ := rt.ProbeReachable(obj)
	return !reachable
}

// ProbeInstanceCount counts the currently reachable instances of c with an
// immediate marking pass.
func (rt *Runtime) ProbeInstanceCount(c *Class) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.flushAllocBuffers()

	tr := trace.New(rt.heap, rt.reg)
	tr.TraceBase(rt.rootSpans())
	n := 0
	rt.heap.Iterate(func(r Ref, hd uint64) {
		if hd&vmheap.FlagMark != 0 && rt.heap.ClassID(r) == c.ID {
			n++
		}
	})
	rt.heap.ClearMarks(0)
	return n
}
