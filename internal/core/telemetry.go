package core

import (
	"repro/internal/report"
	"repro/internal/telemetry"
)

// teleHandler forwards every assertion violation into the telemetry
// recorder as an event. It always continues: the
// response policy belongs to the user's handler, not the instrumentation.
type teleHandler struct {
	rec *telemetry.Recorder
}

// HandleViolation implements report.Handler. It runs inside the collector
// with the world stopped; the recorder mutex is a leaf lock, so the emit
// cannot deadlock against the runtime.
func (t teleHandler) HandleViolation(v *report.Violation) report.Action {
	t.rec.Violation(uint8(v.Kind), v.Kind.String())
	return report.Continue
}

// Telemetry returns the runtime's telemetry recorder, or nil when
// Config.Telemetry was not set. The recorder's methods are safe to call
// concurrently with mutators and collections.
func (rt *Runtime) Telemetry() *telemetry.Recorder { return rt.tele }

// Metrics returns the live telemetry Summary: the same aggregation
// telemetry.Summarize computes from the NDJSON stream, with the assertion
// engine's side-structure footprint set beside it. The zero Summary is
// returned when telemetry is disabled. Unlike Stats, Metrics does not take
// the runtime lock: the recorder has its own leaf mutex and the footprint
// counters are atomic, so snapshots cannot stall mutators or collections.
func (rt *Runtime) Metrics() telemetry.Summary {
	m := rt.tele.Metrics()
	if rt.tele != nil && rt.engine != nil {
		m.SideTabChunkBytes = rt.engine.SideTabFootprint()
	}
	return m
}
