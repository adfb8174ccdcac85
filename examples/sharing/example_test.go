package main

// Example pins the program's report text: the paper's violation format,
// path included, as a reader copies it.
func Example() {
	main()
	// Output:
	// collecting while the structure is a genuine tree...
	// violations so far: 0
	//
	// sharing a subtree (tree becomes a DAG)...
	// Warning: an object that was asserted unshared has more than one incoming pointer.
	// Type: TreeNode
	// Path to object:
	// TreeNode ->
	// TreeNode ->
	// TreeNode
	//
	// violations after sharing: 1
}
