package main

// The metric tables (the workload table is in workload.go). BENCHMARK.json
// at the repo root lists the same names, units, directions and bounds;
// TestManifestMatchesTables fails when the two drift apart.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a later change may lose
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them from the untraced run. The bounds are about three
// times the spread ten runs show on this shared VM in its noisy spells
// (bench/README.md, "Spread on this box"); on a quiet machine they could be
// halved.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"lat_p50_us", "us", "lower", 0.20},
	{"lat_p99_us", "us", "lower", 0.25},
	{"host_live_mb", "MB", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<metric>. A metric whose layer a workload does not cross reads 0
// there (minidb.* on jbb_batch, jbb.* everywhere else, ...).
var perLayer = []metricDef{
	// core: accessors, isolated calls (layers.go).
	{Name: "core.getref_ns", Unit: "ns", Better: "lower"},
	{Name: "core.setref_ns", Unit: "ns", Better: "lower"},
	{Name: "core.getint_ns", Unit: "ns", Better: "lower"},
	{Name: "core.arrgetref_ns", Unit: "ns", Better: "lower"},
	{Name: "core.arrsetref_ns", Unit: "ns", Better: "lower"},
	// core: allocator and barrier, isolated calls.
	{Name: "core.new_direct_ns", Unit: "ns", Better: "lower"},
	{Name: "core.new_buffered_ns", Unit: "ns", Better: "lower"},
	{Name: "core.newstring_ns", Unit: "ns", Better: "lower"},
	{Name: "core.setref_barrier_ns", Unit: "ns", Better: "lower"},
	// core: buffer and pacer counts over the workload's traced window.
	{Name: "core.buffer_carves", Unit: "count", Better: "lower"},
	{Name: "core.buffer_tail_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.pacer_triggers", Unit: "count", Better: "lower"},
	{Name: "core.pacer_assists", Unit: "count", Better: "lower"},
	{Name: "core.pacer_forced_finishes", Unit: "count", Better: "lower"},
	// core: assertion registration, isolated calls.
	{Name: "core.assert_dead_ns", Unit: "ns", Better: "lower"},
	{Name: "core.assert_ownedby_ns", Unit: "ns", Better: "lower"},
	// minidb: Server.Do per op kind, the same Database methods called
	// directly, and the difference (queue + mutex wait).
	{Name: "minidb.do_find_p50_us", Unit: "us", Better: "lower"},
	{Name: "minidb.do_add_p50_us", Unit: "us", Better: "lower"},
	{Name: "minidb.do_remove_p50_us", Unit: "us", Better: "lower"},
	{Name: "minidb.do_session_p50_us", Unit: "us", Better: "lower"},
	{Name: "minidb.direct_find_us", Unit: "us", Better: "lower"},
	{Name: "minidb.direct_add_us", Unit: "us", Better: "lower"},
	{Name: "minidb.direct_remove_us", Unit: "us", Better: "lower"},
	{Name: "minidb.queue_lock_us", Unit: "us", Better: "lower"},
	{Name: "minidb.served", Unit: "count", Better: "higher"},
	{Name: "minidb.failed", Unit: "count", Better: "lower"},
	{Name: "minidb.expired", Unit: "count", Better: "higher"},
	// jbb: mean wall time per transaction call.
	{Name: "jbb.neworder_us", Unit: "us", Better: "lower"},
	{Name: "jbb.payment_us", Unit: "us", Better: "lower"},
	{Name: "jbb.delivery_us", Unit: "us", Better: "lower"},
	// gc: collector phases from the program's own telemetry stream.
	{Name: "gc.collections", Unit: "count", Better: "lower"},
	{Name: "gc.pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "gc.pause_p50_us", Unit: "us", Better: "lower"},
	{Name: "gc.pause_max_us", Unit: "us", Better: "lower"},
	{Name: "gc.mark_ms", Unit: "ms", Better: "lower"},
	{Name: "gc.ownership_ms", Unit: "ms", Better: "lower"},
	{Name: "gc.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "gc.inc_slice_ms", Unit: "ms", Better: "lower"},
	{Name: "gc.marked_words_per_cycle", Unit: "words", Better: "lower"},
	{Name: "gc.freed_words_per_cycle", Unit: "words", Better: "higher"},
	{Name: "gc.mark_mwords_per_s", Unit: "Mwords/s", Better: "higher"},
	// gc: the armed_gc script replayed on Base, unarmed Infrastructure and
	// armed runtimes (the paper's Fig. 3/5 ratios).
	{Name: "gc.base_cycle_us", Unit: "us", Better: "lower"},
	{Name: "gc.infra_cycle_us", Unit: "us", Better: "lower"},
	{Name: "gc.armed_cycle_us", Unit: "us", Better: "lower"},
	{Name: "gc.infra_over_base", Unit: "ratio", Better: "lower"},
	{Name: "gc.armed_over_base", Unit: "ratio", Better: "lower"},
	// trace / assertions / report / sidetab: counts, exact per cycle.
	{Name: "trace.refs_scanned_per_cycle", Unit: "count", Better: "lower"},
	{Name: "trace.ownees_checked_per_cycle", Unit: "count", Better: "lower"},
	{Name: "trace.dead_hits_per_cycle", Unit: "count", Better: "lower"},
	{Name: "assertions.ownees_live", Unit: "count", Better: "lower"},
	{Name: "assertions.violations_per_cycle", Unit: "count", Better: "lower"},
	{Name: "report.violations", Unit: "count", Better: "lower"},
	{Name: "sidetab.chunk_bytes", Unit: "bytes", Better: "lower"},
	// telemetry: what switching the program's event stream on costs.
	{Name: "telemetry.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.events", Unit: "count", Better: "lower"},
	{Name: "telemetry.dropped", Unit: "count", Better: "lower"},
}
