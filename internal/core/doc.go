// Package core is the public API of the gcassert runtime: a managed heap
// with a tracing garbage collector that can check programmer-written heap
// assertions during its normal trace, reproducing "GC Assertions: Using the
// Garbage Collector to Check Heap Properties" (Aftandilian & Guyer, PLDI
// 2009).
//
// A Runtime owns a fixed-size managed heap, a class registry, global and
// thread-stack roots, and the paper's full-heap mark-sweep collector, run
// stop-the-world or in incremental cycles. Programs allocate objects via
// Thread.New and manipulate them through Runtime field accessors; all
// object graphs live inside the managed heap, so the collector genuinely
// traces them.
//
// The five assertions of the paper are exposed as:
//
//	rt.AssertDead(obj)            // reclaimed by the next GC?
//	th.StartRegion()              // bracket begin
//	th.AssertAllDead()            // everything allocated since is dead?
//	rt.AssertInstances(class, n)  // at most n live instances?
//	rt.AssertUnshared(obj)        // at most one incoming pointer?
//	rt.AssertOwnedBy(owner, obj)  // reachable only via its owner?
//
// Assertions are deferred: they are checked by the collector during the
// next collection, piggybacked on the trace. Violations carry the
// complete root-to-object heap path (see package report) and are routed to
// the configured Handler.
//
// All Runtime and Thread methods are safe for concurrent use by multiple
// goroutines; the collector is stop-the-world.
package core
