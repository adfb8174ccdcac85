package main

// Example pins the program's report text: the paper's violation format,
// path included, as a reader copies it.
func Example() {
	main()
	// Output:
	// evicting entry 1 (but leaving a stale reference)...
	// Warning: an object that was asserted dead is reachable.
	// Type: Entry
	// Path to object:
	// Cache ->
	// Object[] ->
	// Entry
	//
	// clearing the stale reference and collecting again...
	// done: 2 collections, 1 violation(s) reported
}
