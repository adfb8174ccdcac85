package core

import (
	"repro/internal/report"
	"repro/internal/telemetry"
)

// teleHandler forwards every assertion violation into the telemetry
// recorder as an event and a per-kind counter. It always continues: the
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

// wireWriteErrors points the OnWriteError hook of any log-writing handlers
// at the telemetry recorder, so failed violation writes surface in
// Metrics.ReportWriteErrors. It recurses one level into Tee fan-outs and
// never overwrites a hook the caller installed.
func wireWriteErrors(h report.Handler, rec *telemetry.Recorder) {
	switch h := h.(type) {
	case *report.Logger:
		if h.OnWriteError == nil {
			h.OnWriteError = rec.CountWriteErrorHook()
		}
	case *report.JSONLogger:
		if h.OnWriteError == nil {
			h.OnWriteError = rec.CountWriteErrorHook()
		}
	case report.Tee:
		for _, sub := range h {
			wireWriteErrors(sub, rec)
		}
	}
}

// Telemetry returns the runtime's telemetry recorder, or nil when
// Config.Telemetry was not set. The recorder's methods are safe to call
// concurrently with mutators and collections.
func (rt *Runtime) Telemetry() *telemetry.Recorder { return rt.tele }

// Metrics returns a snapshot of the telemetry counters and per-phase
// histograms. The zero Metrics is returned when telemetry is disabled.
// Unlike Stats, Metrics does not take the runtime lock: the recorder has
// its own leaf mutex, so snapshots cannot stall mutators or collections.
// The side-structure footprint gauge is refreshed from the assertion engine
// at snapshot time (the counters are atomic, so this also skips the
// runtime lock).
func (rt *Runtime) Metrics() telemetry.Metrics {
	if rt.engine != nil {
		rt.tele.SideTab(rt.engine.SideTabFootprint())
	}
	return rt.tele.Metrics()
}
