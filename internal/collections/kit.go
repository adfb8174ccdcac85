// Package collections provides container data structures that live entirely
// on the managed heap: a growable ArrayList, an open-addressing HashMap
// keyed by int64, and a LongBTree (the analog of SPEC JBB2000's
// spec.jbb.infra.Collections.longBTree, which backs the orderTable in the
// paper's case study).
//
// Because the containers are managed objects, the collector traces their
// internal arrays and nodes like any other data — which is the point: the
// workloads exercise the collector on realistic container-shaped heaps.
//
// Discipline: an operation holds no Ref in Go that a collection could free
// (DESIGN.md §11). A fresh object goes straight into a frame slot through the
// core.Frame allocators: a constructor's into the caller's slot, growth and
// node construction into a scratch frame on the calling thread. Any other
// reference an operation holds across an allocation is rooted in that frame
// too, or reachable from a rooted container, the way a managed runtime uses
// handles.
//
// Array work goes through core's range accessors where it spans more than one
// element (DESIGN.md §14): the ArrayList's shifts, growth copy and block
// scans, and the B-tree's node searches (one ArrReadData of a node's keys)
// and key, value and child shifts (one ArrCopyData or ArrCopyRefs each).
// TreeFirst reaches the smallest key down the left spine, one node per level,
// and TreePut stores its value in the descent that places the key. The
// HashMap and TreeEach still work element by element.
package collections

import "repro/internal/core"

// Kit defines the container classes on a runtime and caches their field
// offsets. Create one Kit per runtime.
type Kit struct {
	rt *core.Runtime

	// ArrayList: data (ref array), size.
	listClass *core.Class
	listData  uint16
	listSize  uint16

	// HashMap: keys (data array), vals (ref array), size, used.
	mapClass *core.Class
	mapKeys  uint16
	mapVals  uint16
	mapSize  uint16
	mapUsed  uint16

	// LongBTree: root (node), size.
	treeClass *core.Class
	treeRoot  uint16
	treeSize  uint16

	// LongBTreeNode: leaf, n, keys (data array), vals (ref array),
	// children (ref array).
	nodeClass    *core.Class
	nodeLeaf     uint16
	nodeN        uint16
	nodeKeys     uint16
	nodeVals     uint16
	nodeChildren uint16
}

// NewKit registers the container classes on rt.
func NewKit(rt *core.Runtime) *Kit {
	k := &Kit{rt: rt}

	k.listClass = rt.DefineClass("ArrayList",
		core.RefField("data"), core.DataField("size"))
	k.listData = k.listClass.MustFieldIndex("data")
	k.listSize = k.listClass.MustFieldIndex("size")

	k.mapClass = rt.DefineClass("HashMap",
		core.RefField("keys"), core.RefField("vals"),
		core.DataField("size"), core.DataField("used"))
	k.mapKeys = k.mapClass.MustFieldIndex("keys")
	k.mapVals = k.mapClass.MustFieldIndex("vals")
	k.mapSize = k.mapClass.MustFieldIndex("size")
	k.mapUsed = k.mapClass.MustFieldIndex("used")

	k.treeClass = rt.DefineClass("longBTree",
		core.RefField("root"), core.DataField("size"))
	k.treeRoot = k.treeClass.MustFieldIndex("root")
	k.treeSize = k.treeClass.MustFieldIndex("size")

	k.nodeClass = rt.DefineClass("longBTreeNode",
		core.DataField("leaf"), core.DataField("n"),
		core.RefField("keys"), core.RefField("vals"), core.RefField("children"))
	k.nodeLeaf = k.nodeClass.MustFieldIndex("leaf")
	k.nodeN = k.nodeClass.MustFieldIndex("n")
	k.nodeKeys = k.nodeClass.MustFieldIndex("keys")
	k.nodeVals = k.nodeClass.MustFieldIndex("vals")
	k.nodeChildren = k.nodeClass.MustFieldIndex("children")

	return k
}

// ListClass returns the ArrayList class (for assertions on containers).
func (k *Kit) ListClass() *core.Class { return k.listClass }

// MapClass returns the HashMap class.
func (k *Kit) MapClass() *core.Class { return k.mapClass }

// TreeClass returns the longBTree class.
func (k *Kit) TreeClass() *core.Class { return k.treeClass }

// NodeClass returns the longBTreeNode class.
func (k *Kit) NodeClass() *core.Class { return k.nodeClass }
