package heapscript

import "repro/internal/report"

// model is the shadow of one world: a script-id object graph kept in plain
// Go, and the paper's checks evaluated against a naive reachability search
// from the slots at each collection's snapshot. It is the executable
// definition of what a collection must report: a dead-asserted object is
// reported iff reachable, an unshared one iff two reachable slots hold it,
// an instance limit iff more reachable instances exist, a region's
// allocations iff any survive its close. It has no model of ownership; an
// op that needs one fails the run.
type model struct {
	objs     map[int]*shadow
	roots    []int   // slot -> id, -1 for nil
	regions  [][]int // open region queues, innermost last
	limits   map[string]instanceLimit
	cycle    uint64
	verdicts []verdict
	broken   string
}

type shadow struct {
	class                  string
	refs                   []int // -1 for nil
	words                  int
	dead, region, unshared bool
}

type instanceLimit struct {
	subclasses bool
	n          int64
}

func newModel(slots int) *model {
	m := &model{objs: map[int]*shadow{}, roots: make([]int, slots), limits: map[string]instanceLimit{}}
	for i := range m.roots {
		m.roots[i] = -1
	}
	return m
}

func (m *model) alloc(id int, class string, refs, words int) {
	if m == nil {
		return
	}
	o := &shadow{class: class, refs: make([]int, refs), words: words}
	for i := range o.refs {
		o.refs[i] = -1
	}
	m.objs[id] = o
	if n := len(m.regions); n > 0 {
		m.regions[n-1] = append(m.regions[n-1], id)
	}
}

func (m *model) root(slot, id int) {
	if m != nil {
		m.roots[slot] = id
	}
}

func (m *model) store(src, field, dst int) {
	if m != nil {
		m.objs[src].refs[field] = dst
	}
}

func (m *model) copy(dst, di, src, si, n int) {
	if m != nil {
		copy(m.objs[dst].refs[di:di+n], m.objs[src].refs[si:si+n])
	}
}

func (m *model) assert(c Code, id int) {
	switch {
	case m == nil:
	case c == AssertDead:
		m.objs[id].dead = true
	default:
		m.objs[id].unshared = true
	}
}

func (m *model) instances(class string, subclasses bool, n int64) {
	if m != nil {
		m.limits[class] = instanceLimit{subclasses, n}
	}
}

func (m *model) startRegion() {
	if m != nil {
		m.regions = append(m.regions, nil)
	}
}

func (m *model) allDead() {
	if m == nil {
		return
	}
	n := len(m.regions) - 1
	for _, id := range m.regions[n] {
		m.objs[id].dead, m.objs[id].region = true, true
	}
	m.regions = m.regions[:n]
}

func (m *model) unsupported(what string) {
	if m != nil && m.broken == "" {
		m.broken = what
	}
}

// collect evaluates every check atomically at the snapshot, then sweeps.
// Encounters count the root and reachable-object slots holding each id: the
// trace scans each reachable object's slots once, so that is its number of
// incoming references from the reachable graph.
func (m *model) collect() {
	if m == nil {
		return
	}
	m.cycle++
	seen := map[int]int{}
	var stack []int
	see := func(id int) {
		if id >= 0 {
			if seen[id]++; seen[id] == 1 {
				stack = append(stack, id)
			}
		}
	}
	for _, id := range m.roots {
		see(id)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range m.objs[id].refs {
			see(c)
		}
	}
	count := map[string]int64{}
	for id, n := range seen {
		o := m.objs[id]
		count[o.class]++
		v := report.Violation{Cycle: m.cycle, Class: o.class}
		if o.dead {
			v.Kind = report.DeadReachable
			if o.region {
				v.Kind = report.RegionSurvivor
			}
			m.verdicts = append(m.verdicts, verdict{v, id})
		}
		if o.unshared && n >= 2 {
			v.Kind = report.SharedObject
			m.verdicts = append(m.verdicts, verdict{v, id})
		}
	}
	for class, l := range m.limits {
		n := count[class]
		if l.subclasses && class == "Node" {
			n += count["Leaf"]
		}
		if n > l.n {
			v := report.Violation{Kind: report.TooManyInstances, Cycle: m.cycle, Class: class, Count: n, Limit: l.n}
			m.verdicts = append(m.verdicts, verdict{v, -1})
		}
	}
	for id := range m.objs {
		if seen[id] == 0 {
			delete(m.objs, id)
		}
	}
	for i, q := range m.regions {
		kept := q[:0]
		for _, id := range q {
			if seen[id] > 0 {
				kept = append(kept, id)
			}
		}
		m.regions[i] = kept
	}
}

// observe is the model's side of a comparison: its verdicts and its
// allocated objects (no addresses, no counters).
func (m *model) observe() (obs, string) {
	o := obs{Verdicts: m.verdicts}
	for id, s := range m.objs {
		o.Live = append(o.Live, obj{ID: id, Class: s.class, Words: uint32(s.words)})
	}
	return o, m.broken
}
