package main

// Example pins the program's report text: the paper's violation format,
// path included, as a reader copies it.
func Example() {
	main()
	// Output:
	// opening 8 per-worker services...
	// Warning: instance limit exceeded: 8 live instances of SearchService (limit 1).
	//
	// switching to a single shared service...
	// violations: 1 (expected 1, from the per-worker phase)
	//   8 live SearchService (limit 1) at GC cycle 1
}
