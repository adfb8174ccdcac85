// Package classes implements the class metadata registry for the gcassert
// runtime — the analog of Jikes RVM's RVMClass. A Class records the object
// layout (which field words hold references, which hold raw data) that the
// collector's trace loop consults, plus the two extra words the paper adds
// for assert-instances: the instance limit and the per-GC instance count.
package classes

import (
	"fmt"
	"sort"
)

// FieldKind distinguishes reference fields from raw data fields.
type FieldKind uint8

const (
	// RefKind fields hold heap references and are traced by the collector.
	RefKind FieldKind = iota
	// DataKind fields hold raw 64-bit data and are ignored by tracing.
	DataKind
)

// Field describes one field of a class. Offset is the word offset within
// the object (the header is word 0, so the first field is at offset 1).
type Field struct {
	Name   string
	Kind   FieldKind
	Offset uint16
}

// Class is the runtime metadata for one object type.
type Class struct {
	ID    uint32
	Name  string
	Super *Class

	// Fields in declaration order, including inherited fields first.
	Fields []Field
	// RefOffsets lists the word offsets of all reference fields, in
	// ascending order. The trace loop iterates this slice directly.
	RefOffsets []uint16
	// FieldWords is the number of field words (object size is
	// FieldWords + 1 header word before alignment).
	FieldWords uint32

	byName map[string]int

	// assert-instances metadata: the paper stores the limit and the
	// running count directly in RVMClass. Limit < 0 means untracked.
	instanceLimit int64
	instanceCount int64

	// includeSubclasses widens the instance count to subclasses.
	includeSubclasses bool
}

// NoLimit is the instance-limit value meaning "not tracked".
const NoLimit int64 = -1

// FieldIndex returns the word offset of the named field, or an error if the
// class has no such field.
func (c *Class) FieldIndex(name string) (uint16, error) {
	i, ok := c.byName[name]
	if !ok {
		return 0, fmt.Errorf("classes: %s has no field %q", c.Name, name)
	}
	return c.Fields[i].Offset, nil
}

// MustFieldIndex is FieldIndex but panics on unknown fields; intended for
// workload setup code where a missing field is a programming error.
func (c *Class) MustFieldIndex(name string) uint16 {
	off, err := c.FieldIndex(name)
	if err != nil {
		panic(err)
	}
	return off
}

// IsSubclassOf reports whether c is parent or a descendant of parent.
func (c *Class) IsSubclassOf(parent *Class) bool {
	for k := c; k != nil; k = k.Super {
		if k == parent {
			return true
		}
	}
	return false
}

// InstanceLimit returns the asserted instance limit, or NoLimit.
func (c *Class) InstanceLimit() int64 { return c.instanceLimit }

// Registry holds every class defined in a runtime. Class IDs are dense and
// start at firstUserID; IDs below that are reserved for the built-in array
// pseudo-classes so that array objects have printable type names in
// violation paths (the paper prints e.g. "[Ljava/lang/Object;").
type Registry struct {
	classes []*Class
	byName  map[string]*Class

	// tracked is a dense bitmap over class IDs: tracked[id] is true when
	// an instance limit has been asserted for the class or one of its
	// ancestors with includeSubclasses. The trace loop consults this on
	// every object, so it must be a cheap slice lookup.
	tracked []bool
	// trackedIDs lists the IDs with limits, checked at the end of a GC.
	trackedIDs []uint32
}

// Reserved built-in class IDs.
const (
	// RefArrayClassID names untyped reference arrays ("Object[]").
	RefArrayClassID uint32 = 0
	// DataArrayClassID names raw data arrays ("data[]").
	DataArrayClassID uint32 = 1

	firstUserID = 2
)

// NewRegistry creates a registry pre-populated with the built-in array
// pseudo-classes.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]*Class)}
	r.add(&Class{Name: "Object[]", instanceLimit: NoLimit}) // RefArrayClassID
	r.add(&Class{Name: "data[]", instanceLimit: NoLimit})   // DataArrayClassID
	return r
}

func (r *Registry) add(c *Class) {
	c.ID = uint32(len(r.classes))
	r.classes = append(r.classes, c)
	r.byName[c.Name] = c
	r.tracked = append(r.tracked, false)
}

// Define creates a new class. Fields are laid out after any inherited
// fields, in declaration order. Define returns an error if the name is
// already taken.
func (r *Registry) Define(name string, super *Class, fields []Field) (*Class, error) {
	if _, dup := r.byName[name]; dup {
		return nil, fmt.Errorf("classes: %q already defined", name)
	}
	c := &Class{
		Name:          name,
		Super:         super,
		byName:        make(map[string]int),
		instanceLimit: NoLimit,
	}
	if super != nil {
		c.Fields = append(c.Fields, super.Fields...)
		for i, f := range c.Fields {
			c.byName[f.Name] = i
		}
	}
	next := uint16(len(c.Fields)) + 1 // word 0 is the header
	for _, f := range fields {
		if _, dup := c.byName[f.Name]; dup {
			return nil, fmt.Errorf("classes: %s: duplicate field %q", name, f.Name)
		}
		f.Offset = next
		next++
		c.byName[f.Name] = len(c.Fields)
		c.Fields = append(c.Fields, f)
	}
	c.FieldWords = uint32(len(c.Fields))
	for _, f := range c.Fields {
		if f.Kind == RefKind {
			c.RefOffsets = append(c.RefOffsets, f.Offset)
		}
	}
	sort.Slice(c.RefOffsets, func(i, j int) bool { return c.RefOffsets[i] < c.RefOffsets[j] })
	r.add(c)
	return c, nil
}

// MustDefine is Define but panics on error; for setup code.
func (r *Registry) MustDefine(name string, super *Class, fields ...Field) *Class {
	c, err := r.Define(name, super, fields)
	if err != nil {
		panic(err)
	}
	return c
}

// ByID returns the class with the given ID. It panics on out-of-range IDs,
// which indicate heap corruption.
func (r *Registry) ByID(id uint32) *Class { return r.classes[id] }

// ByName returns the class with the given name, or nil.
func (r *Registry) ByName(name string) *Class { return r.byName[name] }

// NumClasses returns the number of defined classes including built-ins.
func (r *Registry) NumClasses() int { return len(r.classes) }

// RefOffsets returns the reference-field offsets for the given class ID.
// This is the layout query the trace loop makes for scalar objects.
func (r *Registry) RefOffsets(id uint32) []uint16 { return r.classes[id].RefOffsets }

// Name returns the class name for the given ID.
func (r *Registry) Name(id uint32) string { return r.classes[id].Name }

// SetInstanceLimit installs an assert-instances limit on the class. Passing
// includeSubclasses widens counting to all descendants (an extension beyond
// the paper, which counts exact types). A second call replaces the limit.
func (r *Registry) SetInstanceLimit(c *Class, limit int64, includeSubclasses bool) {
	wasTracked := c.instanceLimit != NoLimit
	c.instanceLimit = limit
	c.includeSubclasses = includeSubclasses
	if !wasTracked {
		r.trackedIDs = append(r.trackedIDs, c.ID)
	}
	r.rebuildTracked()
}

// ClearInstanceLimit removes tracking from the class.
func (r *Registry) ClearInstanceLimit(c *Class) {
	if c.instanceLimit == NoLimit {
		return
	}
	c.instanceLimit = NoLimit
	for i, id := range r.trackedIDs {
		if id == c.ID {
			r.trackedIDs = append(r.trackedIDs[:i], r.trackedIDs[i+1:]...)
			break
		}
	}
	r.rebuildTracked()
}

// rebuildTracked recomputes the dense tracked bitmap. A class is tracked if
// it has a limit, or any ancestor has a subclass-inclusive limit.
func (r *Registry) rebuildTracked() {
	for i := range r.tracked {
		r.tracked[i] = false
	}
	for _, c := range r.classes {
		if c.instanceLimit != NoLimit {
			r.tracked[c.ID] = true
			continue
		}
		for k := c.Super; k != nil; k = k.Super {
			if k.instanceLimit != NoLimit && k.includeSubclasses {
				r.tracked[c.ID] = true
				break
			}
		}
	}
}

// Tracked reports whether objects of class id participate in instance
// counting. Hot path: called once per traced object in Infrastructure mode.
func (r *Registry) Tracked(id uint32) bool { return r.tracked[id] }

// CountInstance records one live instance of class id during tracing. The
// count lands on the tracked class itself or, for subclass-inclusive
// limits, on the tracking ancestor.
func (r *Registry) CountInstance(id uint32) {
	c := r.classes[id]
	if c.instanceLimit != NoLimit {
		c.instanceCount++
		return
	}
	for k := c.Super; k != nil; k = k.Super {
		if k.instanceLimit != NoLimit && k.includeSubclasses {
			k.instanceCount++
			return
		}
	}
}

// OverLimit is one instance-limit violation found at the end of a GC.
type OverLimit struct {
	Class *Class
	Count int64
	Limit int64
}

// CheckLimits compares each tracked class's count against its limit, resets
// all counts for the next cycle, and returns any violations.
func (r *Registry) CheckLimits() []OverLimit {
	var over []OverLimit
	for _, id := range r.trackedIDs {
		c := r.classes[id]
		if c.instanceCount > c.instanceLimit {
			over = append(over, OverLimit{Class: c, Count: c.instanceCount, Limit: c.instanceLimit})
		}
		c.instanceCount = 0
	}
	return over
}

// InstanceCount returns the running count for a class (primarily for tests
// and tools; counts are reset by CheckLimits at the end of each GC).
func (r *Registry) InstanceCount(c *Class) int64 { return c.instanceCount }
