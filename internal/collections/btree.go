package collections

import "repro/internal/core"

// LongBTree is a B-tree from int64 keys to references, modeled after SPEC
// JBB2000's spec.jbb.infra.Collections.longBTree (the orderTable container
// in the paper's case study). Minimum degree btreeT: every node except the
// root holds between btreeT-1 and 2*btreeT-1 keys.
const (
	btreeT       = 8
	btreeMaxKeys = 2*btreeT - 1
	btreeMaxKids = 2 * btreeT
)

// NewTree allocates an empty longBTree into local slot i of f, on f's
// thread, and returns it.
func (k *Kit) NewTree(f core.Frame, i int) core.Ref {
	return f.New(i, k.treeClass)
}

// TreeLen returns the number of keys in the tree.
func (k *Kit) TreeLen(tree core.Ref) int {
	return int(k.rt.GetInt(tree, k.treeSize))
}

// newNode allocates a node into slot `slot` of TreePut's frame f, then its
// key and value arrays (and a children array when internal) into f's slot 4.
// Each array is rooted there only until the node holds it, so every later
// allocation meets the roots it would without the scratch slot.
func (k *Kit) newNode(f core.Frame, slot int, leaf bool) core.Ref {
	rt := k.rt
	n := f.New(slot, k.nodeClass)
	if leaf {
		rt.SetInt(n, k.nodeLeaf, 1)
	}
	link := func(off uint16, arr core.Ref) {
		rt.SetRef(n, off, arr)
		f.SetLocal(4, core.Nil)
	}
	link(k.nodeKeys, f.NewDataArray(4, btreeMaxKeys))
	link(k.nodeVals, f.NewRefArray(4, btreeMaxKeys))
	if !leaf {
		link(k.nodeChildren, f.NewRefArray(4, btreeMaxKids))
	}
	return n
}

// Node accessors. Single keys, values and children go through the
// per-element accessors; a node's key search reads all its keys with one
// ArrReadData, and every shift moves its range with one ArrCopyData (keys) or
// ArrCopyRefs (values, children).

func (k *Kit) nN(n core.Ref) int         { return int(k.rt.GetInt(n, k.nodeN)) }
func (k *Kit) nSetN(n core.Ref, v int)   { k.rt.SetInt(n, k.nodeN, int64(v)) }
func (k *Kit) nLeaf(n core.Ref) bool     { return k.rt.GetInt(n, k.nodeLeaf) != 0 }
func (k *Kit) nKeys(n core.Ref) core.Ref { return k.rt.GetRef(n, k.nodeKeys) }
func (k *Kit) nVals(n core.Ref) core.Ref { return k.rt.GetRef(n, k.nodeVals) }
func (k *Kit) nKids(n core.Ref) core.Ref { return k.rt.GetRef(n, k.nodeChildren) }
func (k *Kit) nKey(n core.Ref, i int) int64 {
	return int64(k.rt.ArrGetData(k.nKeys(n), i))
}
func (k *Kit) nSetKey(n core.Ref, i int, key int64) {
	k.rt.ArrSetData(k.nKeys(n), i, uint64(key))
}
func (k *Kit) nVal(n core.Ref, i int) core.Ref {
	return k.rt.ArrGetRef(k.nVals(n), i)
}
func (k *Kit) nSetVal(n core.Ref, i int, v core.Ref) {
	k.rt.ArrSetRef(k.nVals(n), i, v)
}
func (k *Kit) nChild(n core.Ref, i int) core.Ref {
	return k.rt.ArrGetRef(k.nKids(n), i)
}
func (k *Kit) nSetChild(n core.Ref, i int, c core.Ref) {
	k.rt.ArrSetRef(k.nKids(n), i, c)
}

// search returns node x's key count n and the index i of the first of its
// keys not below key, and whether that key equals key. Keys are data, so the
// stack buffer holds no reference (DESIGN.md §11).
func (k *Kit) search(x core.Ref, key int64) (i, n int, found bool) {
	var buf [btreeMaxKeys]uint64
	n = k.nN(x)
	k.rt.ArrReadData(k.nKeys(x), 0, buf[:n])
	for i < n && key > int64(buf[i]) {
		i++
	}
	return i, n, i < n && key == int64(buf[i])
}

// moveEntries moves n keys and values from index si of node src to index di
// of node dst; src and dst may be one node and the ranges may overlap.
func (k *Kit) moveEntries(dst core.Ref, di int, src core.Ref, si, n int) {
	k.rt.ArrCopyData(k.nKeys(dst), di, k.nKeys(src), si, n)
	k.rt.ArrCopyRefs(k.nVals(dst), di, k.nVals(src), si, n)
}

// moveKids moves n children the same way.
func (k *Kit) moveKids(dst core.Ref, di int, src core.Ref, si, n int) {
	k.rt.ArrCopyRefs(k.nKids(dst), di, k.nKids(src), si, n)
}

// TreeGet returns the value for key and whether it is present.
func (k *Kit) TreeGet(tree core.Ref, key int64) (core.Ref, bool) {
	x := k.rt.GetRef(tree, k.treeRoot)
	for x != core.Nil {
		i, _, found := k.search(x, key)
		if found {
			return k.nVal(x, i), true
		}
		if k.nLeaf(x) {
			return core.Nil, false
		}
		x = k.nChild(x, i)
	}
	return core.Nil, false
}

// TreeFirst returns the smallest key and its value, and false when the tree
// is empty. It follows the leftmost children down to a leaf, so it visits one
// node per level. The value is a Go-held reference, like TreeGet's.
func (k *Kit) TreeFirst(tree core.Ref) (key int64, val core.Ref, ok bool) {
	x := k.rt.GetRef(tree, k.treeRoot)
	if x == core.Nil {
		return 0, core.Nil, false
	}
	// TreeRemove drops an emptied root, so every node here holds a key.
	for !k.nLeaf(x) {
		x = k.nChild(x, 0)
	}
	return k.nKey(x, 0), k.nVal(x, 0), true
}

// TreePut inserts or replaces the mapping for key. th supplies the
// allocation context for node splits.
func (k *Kit) TreePut(th *core.Thread, tree core.Ref, key int64, val core.Ref) {
	rt := k.rt
	f := th.PushFrame(5)
	defer th.PopFrame()
	f.SetLocal(0, tree)
	f.SetLocal(1, val)

	root := rt.GetRef(tree, k.treeRoot)
	if root == core.Nil {
		root = k.newNode(f, 2, true)
		rt.SetRef(tree, k.treeRoot, root)
	}
	if k.nN(root) == btreeMaxKeys {
		// Grow the tree: new internal root adopting the old one.
		f.SetLocal(2, root)
		newRoot := k.newNode(f, 3, false)
		k.nSetChild(newRoot, 0, f.Local(2))
		rt.SetRef(tree, k.treeRoot, newRoot)
		// splitChild re-reads its x from slot 2 across allocations.
		f.SetLocal(2, newRoot)
		k.splitChild(f, newRoot, 0)
		root = newRoot
	}
	if k.insertNonFull(f, root, key) {
		rt.SetInt(tree, k.treeSize, rt.GetInt(tree, k.treeSize)+1)
	}
}

// insertNonFull descends to a leaf inserting key, splitting full children on
// the way down, and stores the value rooted in f's slot 1 wherever it places
// or finds the key. It reports whether the key was newly inserted (false:
// already present, its value replaced).
func (k *Kit) insertNonFull(f core.Frame, x core.Ref, key int64) bool {
	for {
		i, n, found := k.search(x, key)
		if found {
			k.nSetVal(x, i, f.Local(1))
			return false
		}
		if k.nLeaf(x) {
			k.moveEntries(x, i+1, x, i, n-i)
			k.nSetKey(x, i, key)
			k.nSetVal(x, i, f.Local(1))
			k.nSetN(x, n+1)
			return true
		}
		child := k.nChild(x, i)
		if k.nN(child) == btreeMaxKeys {
			// Pin x across the allocation inside splitChild.
			f.SetLocal(2, x)
			k.splitChild(f, x, i)
			x = f.Local(2)
			// The median moved up into x at position i.
			if median := k.nKey(x, i); key == median {
				k.nSetVal(x, i, f.Local(1))
				return false
			} else if key > median {
				i++
			}
			child = k.nChild(x, i)
		}
		x = child
	}
}

// splitChild splits the full child at index i of x (x must be non-full).
// x must be pinned by the caller in f slot 2; the new sibling is built in
// f slot 3.
func (k *Kit) splitChild(f core.Frame, x core.Ref, i int) {
	y := k.nChild(x, i)
	z := k.newNode(f, 3, k.nLeaf(y))
	x = f.Local(2) // re-read after allocation (non-moving, but keep the idiom)
	y = k.nChild(x, i)

	// Move the top T-1 keys/values (and T children) of y into z.
	k.moveEntries(z, 0, y, btreeT, btreeT-1)
	for j := btreeT; j < btreeMaxKeys; j++ {
		k.nSetVal(y, j, core.Nil)
	}
	if !k.nLeaf(y) {
		k.moveKids(z, 0, y, btreeT, btreeT)
		for j := btreeT; j < btreeMaxKids; j++ {
			k.nSetChild(y, j, core.Nil)
		}
	}
	k.nSetN(z, btreeT-1)
	k.nSetN(y, btreeT-1)

	// Shift x's children and keys right and adopt the median.
	n := k.nN(x)
	k.moveKids(x, i+2, x, i+1, n-i)
	k.nSetChild(x, i+1, z)
	k.moveEntries(x, i+1, x, i, n-i)
	k.nSetKey(x, i, k.nKey(y, btreeT-1))
	k.nSetVal(x, i, k.nVal(y, btreeT-1))
	k.nSetVal(y, btreeT-1, core.Nil)
	k.nSetN(x, n+1)
}

// TreeEach walks the tree in key order.
func (k *Kit) TreeEach(tree core.Ref, fn func(key int64, val core.Ref)) {
	root := k.rt.GetRef(tree, k.treeRoot)
	if root != core.Nil {
		k.eachNode(root, fn)
	}
}

func (k *Kit) eachNode(x core.Ref, fn func(int64, core.Ref)) {
	n := k.nN(x)
	leaf := k.nLeaf(x)
	for i := 0; i < n; i++ {
		if !leaf {
			k.eachNode(k.nChild(x, i), fn)
		}
		fn(k.nKey(x, i), k.nVal(x, i))
	}
	if !leaf {
		k.eachNode(k.nChild(x, n), fn)
	}
}

// TreeRemove deletes the mapping for key, reporting whether it existed.
// Deletion never allocates, so it needs no pinning frame.
func (k *Kit) TreeRemove(tree core.Ref, key int64) bool {
	rt := k.rt
	root := rt.GetRef(tree, k.treeRoot)
	if root == core.Nil {
		return false
	}
	removed := k.deleteFrom(root, key)
	if removed {
		rt.SetInt(tree, k.treeSize, rt.GetInt(tree, k.treeSize)-1)
	}
	// Shrink the tree when the root empties.
	if k.nN(root) == 0 {
		if k.nLeaf(root) {
			rt.SetRef(tree, k.treeRoot, core.Nil)
		} else {
			rt.SetRef(tree, k.treeRoot, k.nChild(root, 0))
		}
	}
	return removed
}

// deleteFrom implements CLRS B-tree deletion; x has at least btreeT keys
// unless it is the root.
func (k *Kit) deleteFrom(x core.Ref, key int64) bool {
	i, n, found := k.search(x, key)

	if found {
		if k.nLeaf(x) {
			// Case 1: present in a leaf.
			k.moveEntries(x, i, x, i+1, n-1-i)
			k.nSetVal(x, n-1, core.Nil)
			k.nSetN(x, n-1)
			return true
		}
		// Case 2: present in an internal node.
		left, right := k.nChild(x, i), k.nChild(x, i+1)
		switch {
		case k.nN(left) >= btreeT:
			pk, pv := k.maxOf(left)
			k.nSetKey(x, i, pk)
			k.nSetVal(x, i, pv)
			return k.deleteFrom(left, pk)
		case k.nN(right) >= btreeT:
			sk, sv := k.minOf(right)
			k.nSetKey(x, i, sk)
			k.nSetVal(x, i, sv)
			return k.deleteFrom(right, sk)
		default:
			k.mergeChildren(x, i)
			return k.deleteFrom(left, key)
		}
	}

	if k.nLeaf(x) {
		return false // not present
	}
	// Case 3: descend, topping up the child first if minimal.
	child := k.nChild(x, i)
	if k.nN(child) == btreeT-1 {
		i = k.fixChild(x, i)
		child = k.nChild(x, i)
	}
	return k.deleteFrom(child, key)
}

// maxOf returns the rightmost key/value in the subtree at x.
func (k *Kit) maxOf(x core.Ref) (int64, core.Ref) {
	for !k.nLeaf(x) {
		x = k.nChild(x, k.nN(x))
	}
	n := k.nN(x)
	return k.nKey(x, n-1), k.nVal(x, n-1)
}

// minOf returns the leftmost key/value in the subtree at x.
func (k *Kit) minOf(x core.Ref) (int64, core.Ref) {
	for !k.nLeaf(x) {
		x = k.nChild(x, 0)
	}
	return k.nKey(x, 0), k.nVal(x, 0)
}

// fixChild ensures child i of x has at least btreeT keys, borrowing from a
// sibling or merging. It returns the (possibly shifted) index of the child
// to descend into.
func (k *Kit) fixChild(x core.Ref, i int) int {
	child := k.nChild(x, i)
	if i > 0 && k.nN(k.nChild(x, i-1)) >= btreeT {
		// Borrow from the left sibling through the separator.
		left := k.nChild(x, i-1)
		ln := k.nN(left)
		cn := k.nN(child)
		k.moveEntries(child, 1, child, 0, cn)
		if !k.nLeaf(child) {
			k.moveKids(child, 1, child, 0, cn+1)
			k.nSetChild(child, 0, k.nChild(left, ln))
			k.nSetChild(left, ln, core.Nil)
		}
		k.nSetKey(child, 0, k.nKey(x, i-1))
		k.nSetVal(child, 0, k.nVal(x, i-1))
		k.nSetKey(x, i-1, k.nKey(left, ln-1))
		k.nSetVal(x, i-1, k.nVal(left, ln-1))
		k.nSetVal(left, ln-1, core.Nil)
		k.nSetN(left, ln-1)
		k.nSetN(child, cn+1)
		return i
	}
	if i < k.nN(x) && k.nN(k.nChild(x, i+1)) >= btreeT {
		// Borrow from the right sibling through the separator.
		right := k.nChild(x, i+1)
		rn := k.nN(right)
		cn := k.nN(child)
		k.nSetKey(child, cn, k.nKey(x, i))
		k.nSetVal(child, cn, k.nVal(x, i))
		if !k.nLeaf(child) {
			k.nSetChild(child, cn+1, k.nChild(right, 0))
			k.moveKids(right, 0, right, 1, rn)
			k.nSetChild(right, rn, core.Nil)
		}
		k.nSetKey(x, i, k.nKey(right, 0))
		k.nSetVal(x, i, k.nVal(right, 0))
		k.moveEntries(right, 0, right, 1, rn-1)
		k.nSetVal(right, rn-1, core.Nil)
		k.nSetN(right, rn-1)
		k.nSetN(child, cn+1)
		return i
	}
	// Merge with a sibling.
	if i == k.nN(x) {
		i--
	}
	k.mergeChildren(x, i)
	return i
}

// mergeChildren merges child i+1 and the separator key into child i of x.
func (k *Kit) mergeChildren(x core.Ref, i int) {
	left := k.nChild(x, i)
	right := k.nChild(x, i+1)
	ln, rn := k.nN(left), k.nN(right)

	k.nSetKey(left, ln, k.nKey(x, i))
	k.nSetVal(left, ln, k.nVal(x, i))
	k.moveEntries(left, ln+1, right, 0, rn)
	if !k.nLeaf(left) {
		k.moveKids(left, ln+1, right, 0, rn+1)
	}
	k.nSetN(left, ln+1+rn)

	// Remove the separator and the right child from x.
	n := k.nN(x)
	k.moveEntries(x, i, x, i+1, n-1-i)
	k.moveKids(x, i+1, x, i+2, n-1-i)
	k.nSetChild(x, n, core.Nil)
	k.nSetVal(x, n-1, core.Nil)
	k.nSetN(x, n-1)
}
