// Package roots manages the global (static) roots of the gcassert runtime
// and aggregates all root sources for the collector's root-scan phase.
package roots

import (
	"fmt"

	"repro/internal/vmheap"
)

// Global is a named static root slot, the analog of a static field in a
// managed language. The collector treats every Global as a root.
type Global struct {
	Name string
	ref  vmheap.Ref
}

// Get returns the reference stored in the global.
func (g *Global) Get() vmheap.Ref { return g.ref }

// Set stores a reference in the global.
func (g *Global) Set(r vmheap.Ref) { g.ref = r }

// Table is the set of global roots in a runtime.
type Table struct {
	globals []*Global
	byName  map[string]*Global
}

// NewTable returns an empty global root table.
func NewTable() *Table {
	return &Table{byName: make(map[string]*Global)}
}

// Add creates a named global root. It panics on duplicate names; globals
// are created during setup where duplication is a programming error.
func (t *Table) Add(name string) *Global {
	if _, dup := t.byName[name]; dup {
		panic(fmt.Sprintf("roots: global %q already exists", name))
	}
	g := &Global{Name: name}
	t.globals = append(t.globals, g)
	t.byName[name] = g
	return g
}

// ByName returns the named global, or nil.
func (t *Table) ByName(name string) *Global { return t.byName[name] }

// Remove deletes a global root, dropping its reference.
func (t *Table) Remove(name string) {
	g, ok := t.byName[name]
	if !ok {
		return
	}
	delete(t.byName, name)
	for i, x := range t.globals {
		if x == g {
			t.globals = append(t.globals[:i], t.globals[i+1:]...)
			break
		}
	}
}

// Len returns the number of globals.
func (t *Table) Len() int { return len(t.globals) }

// Each reports every global (including nil-valued ones) in creation order.
func (t *Table) Each(fn func(name string, r vmheap.Ref)) {
	for _, g := range t.globals {
		fn(g.Name, g.ref)
	}
}

// EachRoot invokes fn with the address of every non-nil global slot.
func (t *Table) EachRoot(fn func(slot *vmheap.Ref)) {
	for _, g := range t.globals {
		if g.ref != vmheap.Nil {
			fn(&g.ref)
		}
	}
}

// Source is anything that can enumerate root slots: the global table and
// the thread set.
type Source interface {
	EachRoot(fn func(slot *vmheap.Ref))
}

// Multi aggregates several sources into one.
type Multi []Source

// EachRoot invokes fn for every root slot of every source in order.
func (m Multi) EachRoot(fn func(slot *vmheap.Ref)) {
	for _, s := range m {
		s.EachRoot(fn)
	}
}
