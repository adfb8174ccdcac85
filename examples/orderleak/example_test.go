package main

// Example pins the program's report text: the paper's violation format,
// path included, as a reader copies it.
func Example() {
	main()
	// Output:
	// fulfilling all ten orders...
	// Warning: an object owned by longBTree is reachable but not through its owner.
	// Type: Order
	// Path to object:
	// Customer ->
	// Order
	//
	// applying the fix (clear lastOrder) and collecting again...
	// done: 1 violation(s); 0 ownee(s) still tracked
}
