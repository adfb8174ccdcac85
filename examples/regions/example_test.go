package main

// Example pins the program's report text: the paper's violation format,
// path included, as a reader copies it.
func Example() {
	main()
	// Output:
	// serving 5 connections with the leaky handler...
	// Warning: an object allocated in a region survived assert-alldead.
	// Type: Session
	// Path to object:
	// ArrayList ->
	// Object[] ->
	// Session
	//
	// Warning: an object allocated in a region survived assert-alldead.
	// Type: Session
	// Path to object:
	// ArrayList ->
	// Object[] ->
	// Session
	//
	// Warning: an object allocated in a region survived assert-alldead.
	// Type: Session
	// Path to object:
	// ArrayList ->
	// Object[] ->
	// Session
	//
	// Warning: an object allocated in a region survived assert-alldead.
	// Type: Session
	// Path to object:
	// ArrayList ->
	// Object[] ->
	// Session
	//
	// Warning: an object allocated in a region survived assert-alldead.
	// Type: Session
	// Path to object:
	// ArrayList ->
	// Object[] ->
	// Session
	//
	// Warning: an object allocated in a region survived assert-alldead.
	// Type: data[]
	// Path to object:
	// ArrayList ->
	// Object[] ->
	// Session ->
	// data[]
	//
	// Warning: an object allocated in a region survived assert-alldead.
	// Type: data[]
	// Path to object:
	// ArrayList ->
	// Object[] ->
	// Session ->
	// data[]
	//
	// Warning: an object allocated in a region survived assert-alldead.
	// Type: data[]
	// Path to object:
	// ArrayList ->
	// Object[] ->
	// Session ->
	// data[]
	//
	// Warning: an object allocated in a region survived assert-alldead.
	// Type: data[]
	// Path to object:
	// ArrayList ->
	// Object[] ->
	// Session ->
	// data[]
	//
	// Warning: an object allocated in a region survived assert-alldead.
	// Type: data[]
	// Path to object:
	// ArrayList ->
	// Object[] ->
	// Session ->
	// data[]
	//
	// serving 5 connections with the fixed handler...
	// leaky handler: 10 region violations; fixed handler: 0
}
