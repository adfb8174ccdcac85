package trace_test

// Shadow-graph model-checker oracle for the incremental collector.
//
// A pure-Go shadow model replays the same mutator script the runtime
// executes, keeping its own object graph (ids, slots, root set, assertion
// bits, region queues, instance limits). At every StartGC the model
// evaluates the paper's checks against a naive full-snapshot reachability
// BFS — the executable definition of what a garbage-collection assertion
// means: dead-asserted objects must be unreachable, unshared-asserted
// objects must have at most one incoming reference, instance counts must
// not exceed their limits, region allocations must all have died.
//
// The runtime, by contrast, detects the same violations spread across
// bounded mark slices, snapshot-at-beginning barrier scans, allocation
// assists, and forced completions — none of which the model knows anything
// about. The test asserts that the two produce identical violation
// multisets on every script: the incremental machinery is only correct if
// it is observationally equivalent to atomic snapshot evaluation.
//
// Ownership assertions are excluded from the model (their pre-phase scan
// order is not a reachability property); they are covered by the
// serial-vs-incremental differential and the assertion matrix tests.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

// makeOracleScript draws a script over the model-checkable op subset (no
// ownership), with StartGC/FinishGC pairing tracked as in makeIncScript.
func makeOracleScript(seed int64) []incOp {
	codes := []incOpCode{
		incAllocNode, incAllocArray, incAllocBig,
		incWire, incWire, incWire, // extra weight: edges drive every check
		incClear,
		incAssertDead, incAssertUnshared, incAssertInstances,
		incStartRegion, incAllDead,
		incStartGC, incStep, incFinishGC,
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]incOp, incOps)
	inBlock := false
	for n := range ops {
		code := codes[rng.Intn(len(codes))]
		if (code == incStartGC && inBlock) || (code == incFinishGC && !inBlock) {
			code = incStep
		}
		if code == incStartGC {
			inBlock = true
		}
		if code == incFinishGC {
			inBlock = false
		}
		ops[n] = incOp{code: code, i: rng.Intn(incSlots), j: rng.Intn(incSlots), k: rng.Intn(64)}
	}
	return ops
}

// shadowObj is one model object: its class name (as the runtime's violation
// renderer prints it), reference slots by id (-1 nil), and assertion bits.
type shadowObj struct {
	class    string
	slots    []int
	dead     bool
	region   bool // assert-alldead standing: selects the RegionSurvivor kind
	unshared bool
}

// shadowModel is the naive reference implementation of the assertion
// semantics over a script-id object graph.
type shadowModel struct {
	objs    map[int]*shadowObj
	nalloc  int
	slots   []int   // root slots, -1 nil
	regions [][]int // open region queues, innermost last

	nodeLimit    int64
	nodeLimitSet bool

	cycle uint64
	vlog  []string
}

func newShadowModel() *shadowModel {
	m := &shadowModel{objs: make(map[int]*shadowObj), slots: make([]int, incSlots)}
	for i := range m.slots {
		m.slots[i] = -1
	}
	return m
}

func (m *shadowModel) alloc(class string, nslots int) int {
	id := m.nalloc
	m.nalloc++
	slots := make([]int, nslots)
	for i := range slots {
		slots[i] = -1
	}
	m.objs[id] = &shadowObj{class: class, slots: slots}
	if len(m.regions) > 0 {
		last := len(m.regions) - 1
		m.regions[last] = append(m.regions[last], id)
	}
	return id
}

// apply mirrors incWorld.apply op for op; the two must stay in lockstep so
// every model id names the same script object as the runtime's ids map.
func (m *shadowModel) apply(op incOp) {
	switch op.code {
	case incAllocNode:
		m.slots[op.i] = m.alloc("Node", 2)
	case incAllocArray:
		m.slots[op.i] = m.alloc("Object[]", 1+op.k%6)
	case incAllocBig:
		m.slots[op.i] = m.alloc("Big", 4)
	case incWire:
		src, dst := m.slots[op.i], m.slots[op.j]
		if src < 0 {
			return
		}
		o := m.objs[src]
		switch o.class {
		case "Node":
			o.slots[op.k%2] = dst
		case "Big":
			o.slots[op.k%4] = dst
		default:
			o.slots[op.k%len(o.slots)] = dst
		}
	case incClear:
		m.slots[op.i] = -1
	case incAssertDead:
		if id := m.slots[op.i]; id >= 0 {
			m.objs[id].dead = true
		}
	case incAssertUnshared:
		if id := m.slots[op.i]; id >= 0 {
			m.objs[id].unshared = true
		}
	case incAssertInstances:
		if op.k%4 == 0 {
			m.nodeLimit, m.nodeLimitSet = int64(op.k), true
		}
	case incStartRegion:
		if len(m.regions) < 2 {
			m.regions = append(m.regions, nil)
		}
	case incAllDead:
		if n := len(m.regions); n > 0 {
			queue := m.regions[n-1]
			m.regions = m.regions[:n-1]
			for _, id := range queue {
				if o, live := m.objs[id]; live {
					o.dead = true
					o.region = true
				}
			}
		}
	case incStartGC:
		m.collect()
	case incStep, incFinishGC:
		// The cycle's outcome was fixed at its snapshot; see collect.
	}
}

// collect is the oracle: one atomic full-snapshot evaluation of every
// check, followed by the sweep. The runtime spreads the same cycle over
// slices and barrier scans, but its snapshot is taken at the same op, so
// the violations must be identical.
func (m *shadowModel) collect() {
	m.cycle++

	// Naive reachability BFS, counting encounters: one per root slot or
	// reachable-object slot holding the id. The trace scans each reachable
	// object's slots exactly once, so encounters == incoming references
	// from the reachable subgraph.
	encounters := make(map[int]int)
	var queue []int
	see := func(id int) {
		if id < 0 {
			return
		}
		encounters[id]++
		if encounters[id] == 1 {
			queue = append(queue, id)
		}
	}
	for _, id := range m.slots {
		see(id)
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, c := range m.objs[id].slots {
			see(c)
		}
	}

	// The checks, in the model's canonical order (the comparison sorts).
	var nodes int64
	for id, n := range encounters {
		o := m.objs[id]
		if o.dead {
			kind := "assert-dead"
			if o.region {
				kind = "assert-alldead"
			}
			m.vlog = append(m.vlog, fmt.Sprintf("%s|c%d|%s#%d|0/0|", kind, m.cycle, o.class, id))
		}
		if o.unshared && n >= 2 {
			m.vlog = append(m.vlog, fmt.Sprintf("assert-unshared|c%d|%s#%d|0/0|", m.cycle, o.class, id))
		}
		if o.class == "Node" {
			nodes++
		}
	}
	if m.nodeLimitSet && nodes > m.nodeLimit {
		m.vlog = append(m.vlog, fmt.Sprintf("assert-instances|c%d|Node#-1|%d/%d|", m.cycle, nodes, m.nodeLimit))
	}

	// Sweep: unreachable objects go away; region queues drop dying entries.
	for id := range m.objs {
		if encounters[id] == 0 {
			delete(m.objs, id)
		}
	}
	for i, q := range m.regions {
		kept := q[:0]
		for _, id := range q {
			if encounters[id] > 0 {
				kept = append(kept, id)
			}
		}
		m.regions[i] = kept
	}
}

func (m *shadowModel) drain() []string {
	out := m.vlog
	m.vlog = nil
	sort.Strings(out)
	return out
}

// liveIDs returns the model's allocated objects in the differential
// rendering (id:class:words). Sizes mirror vmheap: a one-word header plus
// the field words for scalars (Node has one data field beyond its 2 refs),
// a two-word header plus elements for arrays, rounded up to the allocator's
// two-word alignment.
func (m *shadowModel) liveIDs() []string {
	var out []string
	for id, o := range m.objs {
		var words int
		switch o.class {
		case "Node":
			words = 1 + 3
		case "Big":
			words = 1 + 4
		default:
			words = 2 + len(o.slots)
		}
		words += words % 2
		out = append(out, fmt.Sprintf("%d:%s:%d", id, o.class, words))
	}
	sort.Strings(out)
	return out
}

func runOracle(t *testing.T, budget int, seed int64) core.Snapshot {
	script := makeOracleScript(seed)
	model := newShadowModel()
	world := newIncWorld(budget)

	for n, op := range script {
		if out := world.apply(t, op); out != "" {
			t.Fatalf("op %d (seed %d): unexpected runtime error %q", n, seed, out)
		}
		model.apply(op)
		if op.code == incFinishGC {
			if a, b := model.drain(), world.drainViolations(t); !reflect.DeepEqual(a, b) {
				t.Fatalf("op %d (seed %d): model and runtime disagree:\nmodel:   %v\nruntime: %v", n, seed, a, b)
			}
		}
	}
	if err := world.rt.FinishGC(); err != nil {
		t.Fatalf("final FinishGC: %v", err)
	}
	if err := world.rt.GC(); err != nil {
		t.Fatalf("final GC: %v", err)
	}
	model.collect()
	if a, b := model.drain(), world.drainViolations(t); !reflect.DeepEqual(a, b) {
		t.Fatalf("end (seed %d): model and runtime disagree:\nmodel:   %v\nruntime: %v", seed, a, b)
	}
	// After the final collection the allocated heap is exactly the model's
	// reachable object set.
	if a, b := model.liveIDs(), world.liveIDs(t); !reflect.DeepEqual(a, b) {
		t.Fatalf("end (seed %d): live sets disagree:\nmodel:   %v\nruntime: %v", seed, a, b)
	}
	return world.rt.Stats()
}

// TestOracleIncremental checks the incremental runtime against the shadow
// model over a corpus of random scripts.
func TestOracleIncremental(t *testing.T) {
	var cycles, slices, barriers uint64
	for seed := int64(0); seed < 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := runOracle(t, incBudget, seed).GC
			cycles += s.IncrementalCycles
			slices += s.MarkSlices
			barriers += s.BarrierScans
		})
	}
	if cycles == 0 || slices == 0 || barriers == 0 {
		t.Fatalf("vacuous oracle corpus: cycles=%d slices=%d barrierScans=%d", cycles, slices, barriers)
	}
}

// TestOracleStopTheWorld checks the stop-the-world runtime against the same
// model: the oracle's semantics are collector-schedule-independent.
func TestOracleStopTheWorld(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runOracle(t, 0, seed)
		})
	}
}
