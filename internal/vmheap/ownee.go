package vmheap

// FlagOwnee marks objects registered as ownees by assert-ownedby. The trace
// loop tests this bit before doing the (comparatively expensive) lookup
// in the ownee index, so that per-object ownership cost is paid
// only for actual ownees — matching the paper's account that each GC checks
// "15,274 ownee objects", not every object.
const FlagOwnee uint64 = 1 << 7

// FlagOwner marks objects registered as owners by assert-ownedby. It sits
// above the flag byte, between the kind bits and the class field, and lets
// the ownership phase truncate at other owners with a single bit test.
const FlagOwner uint64 = 1 << 10
