// Package workloads provides the synthetic benchmark suite used to
// reproduce Figures 2 and 3 of the paper (Base vs Infrastructure overhead
// across DaCapo 2006, SPEC JVM98 and pseudojbb).
//
// The original benchmarks are Java applications we cannot run on this
// runtime, so each workload here is a synthetic mutator named after the
// benchmark whose heap profile it models: the same axes that determine
// trace-loop overhead — allocation rate, object size mix, pointer density,
// fraction of long-lived data, and graph shape (trees, cyclic graphs, flat
// arrays, token streams) — are varied per workload. Figures 2/3 measure
// *relative* overhead of the assertion infrastructure, so heap-shape
// diversity, not application logic, is what the substitution must preserve
// (see DESIGN.md).
//
// Every workload allocates exclusively on the managed heap through the
// core API, keeps its long-lived data reachable from registered globals,
// and is deterministic (seeded PRNG).
package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Workload is one synthetic benchmark.
type Workload interface {
	// Name returns the benchmark name used in figure rows.
	Name() string
	// HeapWords returns the heap size to run with, chosen roughly at
	// twice the workload's minimum live size (the paper's methodology).
	HeapWords() int
	// Setup defines classes and builds the long-lived data. Called once,
	// before timing starts.
	Setup(rt *core.Runtime, th *core.Thread)
	// Iterate runs one benchmark iteration (the timed unit).
	Iterate(rt *core.Runtime, th *core.Thread)
}

// setNew allocates a container with newIn into the global g, rooted in a
// frame of th until it is stored.
func setNew(th *core.Thread, g *core.Global, newIn func(f *core.Frame, i int) core.Ref) {
	f := th.PushFrame(1)
	g.Set(newIn(f, 0))
	th.PopFrame()
}

// Factory creates a fresh workload instance (workloads are stateful and
// bound to one runtime after Setup).
type Factory func() Workload

var registry []Factory
var registryNames = map[string]Factory{}

// register adds a workload factory to the suite in declaration order.
func register(f Factory) {
	registry = append(registry, f)
	registryNames[f().Name()] = f
}

// Suite returns factories for the full benchmark suite, in the order the
// paper's figures list them.
func Suite() []Factory {
	out := make([]Factory, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the factory for one benchmark, or nil.
func ByName(name string) Factory { return registryNames[name] }

// Names lists the suite's benchmark names in order.
func Names() []string {
	out := make([]string, len(registry))
	for i, f := range registry {
		out[i] = f().Name()
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared helpers

// rng returns a deterministic source per workload.
func rng(name string) *rand.Rand {
	var seed int64
	for _, c := range name {
		seed = seed*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed))
}

// words is a tiny corpus for string-bearing workloads.
var words = []string{
	"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
	"pack", "my", "box", "with", "five", "dozen", "liquor", "jugs",
	"sphinx", "of", "black", "quartz", "judge", "vow", "waltz", "nymph",
}

// sentence builds a deterministic pseudo-sentence.
func sentence(r *rand.Rand, n int) string {
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += words[r.Intn(len(words))]
	}
	return s
}

// checksum folds a value into a running checksum; workloads consume their
// own outputs so the work cannot be optimized away and corruption surfaces
// as checksum drift in tests.
func checksum(acc, v uint64) uint64 {
	acc ^= v
	acc *= 0x100000001b3
	return acc
}

// verify compares per-iteration checksums across iterations; used by the
// workload tests to detect heap corruption under GC pressure.
type verify struct {
	first uint64
	set   bool
}

func (v *verify) note(sum uint64) error {
	if !v.set {
		v.first, v.set = sum, true
		return nil
	}
	if sum != v.first {
		return fmt.Errorf("checksum drift: %#x != %#x", sum, v.first)
	}
	return nil
}
