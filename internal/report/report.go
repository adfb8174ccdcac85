// Package report defines assertion violations, the full-heap-path debugging
// information attached to them, and the actions a runtime can take when one
// triggers (Section 2.6 and 2.7 of the paper: log and continue, log and
// halt, or force the assertion true — the forcing itself is performed by
// the collector; the handler only selects the policy).
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"repro/internal/vmheap"
)

// Kind identifies which assertion was violated.
type Kind uint8

const (
	// DeadReachable: an object asserted dead was found reachable.
	DeadReachable Kind = iota
	// RegionSurvivor: an object allocated in a start-region bracket was
	// found reachable after assert-alldead (reported as DeadReachable in
	// the paper's implementation; distinguished here for diagnosis).
	RegionSurvivor
	// TooManyInstances: a class exceeded its assert-instances limit.
	TooManyInstances
	// SharedObject: an assert-unshared object was reached twice.
	SharedObject
	// UnownedOwnee: an assert-ownedby ownee was reachable but not through
	// its owner.
	UnownedOwnee
	// ImproperOwnership: an ownee was reached from a different owner's
	// scan — the programmer's owner regions overlap, which the paper
	// flags as improper use of the assertion.
	ImproperOwnership
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case DeadReachable:
		return "assert-dead"
	case RegionSurvivor:
		return "assert-alldead"
	case TooManyInstances:
		return "assert-instances"
	case SharedObject:
		return "assert-unshared"
	case UnownedOwnee:
		return "assert-ownedby"
	case ImproperOwnership:
		return "assert-ownedby (improper use)"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// PathElem is one step of a heap path: an object instance and its class
// name. The paper's Cork comparison notes that paths here are instances,
// not just types, though the printed form shows types (Figure 1).
type PathElem struct {
	Class string
	Ref   vmheap.Ref
}

// Violation is one triggered assertion.
type Violation struct {
	Kind  Kind
	Cycle uint64 // GC cycle in which the violation was detected

	// Object is the offending object (the dead-asserted object, the
	// shared object, the unowned ownee). Nil for TooManyInstances.
	Object vmheap.Ref
	// Class is the offending object's class name, or the tracked class
	// for TooManyInstances.
	Class string

	// Path is the complete path through the heap from a root to Object,
	// ending with Object itself. Empty when the detection point cannot
	// supply one (assert-instances; and for assert-unshared only the
	// second path is known — see the paper's Section 2.7 limitation).
	Path []PathElem

	// Count and Limit are set for TooManyInstances.
	Count int64
	Limit int64

	// Owner names the asserted owner for ownership violations.
	Owner string
}

// headline returns the first line of the warning, phrased per assertion.
func (v *Violation) headline() string {
	switch v.Kind {
	case DeadReachable:
		return "Warning: an object that was asserted dead is reachable."
	case RegionSurvivor:
		return "Warning: an object allocated in a region survived assert-alldead."
	case TooManyInstances:
		return fmt.Sprintf("Warning: instance limit exceeded: %d live instances of %s (limit %d).",
			v.Count, v.Class, v.Limit)
	case SharedObject:
		return "Warning: an object that was asserted unshared has more than one incoming pointer."
	case UnownedOwnee:
		return fmt.Sprintf("Warning: an object owned by %s is reachable but not through its owner.", v.Owner)
	case ImproperOwnership:
		return "Warning: improper use of assert-ownedby: owner regions overlap."
	default:
		return "Warning: assertion violated."
	}
}

// Format renders the violation in the paper's Figure 1 style:
//
//	Warning: an object that was asserted dead is reachable.
//	Type: Order
//	Path to object:
//	Company ->
//	Object[] ->
//	...
//	Order
func (v *Violation) Format() string {
	var b strings.Builder
	b.WriteString(v.headline())
	b.WriteByte('\n')
	if v.Kind != TooManyInstances {
		fmt.Fprintf(&b, "Type: %s\n", v.Class)
	}
	if len(v.Path) > 0 {
		b.WriteString("Path to object:\n")
		for i, e := range v.Path {
			b.WriteString(e.Class)
			if i < len(v.Path)-1 {
				b.WriteString(" ->")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// String implements fmt.Stringer.
func (v *Violation) String() string { return v.Format() }

// Action tells the collector how to respond to a violation (Section 2.6).
type Action uint8

const (
	// Continue logs the violation and keeps executing — the paper's
	// choice, preserving the no-assertion semantics of the program.
	Continue Action = iota
	// Halt stops the program: the runtime returns a HaltError from the
	// collection that detected the violation.
	Halt
	// Force makes the assertion true where possible: for lifetime
	// assertions the collector nulls the incoming reference instead of
	// tracing it, allowing the object to be reclaimed.
	Force
)

// Handler decides what to do with each violation. Handlers run inside the
// collector with the world stopped: they must not touch the runtime.
type Handler interface {
	HandleViolation(v *Violation) Action
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(v *Violation) Action

// HandleViolation calls f.
func (f HandlerFunc) HandleViolation(v *Violation) Action { return f(v) }

// Logger logs every violation to an io.Writer and continues — the paper's
// default policy.
type Logger struct {
	W    io.Writer
	errs atomic.Uint64
}

// HandleViolation writes the formatted violation and returns Continue.
// Logging stays best-effort — a violation handler must never take the
// collector down — but failed writes are counted (WriteErrors) rather
// than silently discarded.
func (l *Logger) HandleViolation(v *Violation) Action {
	if _, err := fmt.Fprintln(l.W, v.Format()); err != nil {
		l.errs.Add(1)
	}
	return Continue
}

// WriteErrors returns the number of violation writes that failed.
func (l *Logger) WriteErrors() uint64 { return l.errs.Load() }

// JSONLogger writes one JSON object per violation — structured logging for
// the deployed setting the paper targets ("low enough for use in a
// deployed setting"), where warnings feed a log pipeline rather than a
// terminal.
type JSONLogger struct {
	W    io.Writer
	errs atomic.Uint64
}

// jsonViolation is the wire form.
type jsonViolation struct {
	Assertion string   `json:"assertion"`
	Cycle     uint64   `json:"cycle"`
	Class     string   `json:"class,omitempty"`
	Object    uint32   `json:"object,omitempty"`
	Path      []string `json:"path,omitempty"`
	Count     int64    `json:"count,omitempty"`
	Limit     int64    `json:"limit,omitempty"`
	Owner     string   `json:"owner,omitempty"`
}

// HandleViolation encodes the violation as one JSON line and returns
// Continue.
func (l *JSONLogger) HandleViolation(v *Violation) Action {
	jv := jsonViolation{
		Assertion: v.Kind.String(),
		Cycle:     v.Cycle,
		Class:     v.Class,
		Object:    uint32(v.Object),
		Count:     v.Count,
		Limit:     v.Limit,
		Owner:     v.Owner,
	}
	for _, e := range v.Path {
		jv.Path = append(jv.Path, e.Class)
	}
	enc := json.NewEncoder(l.W)
	if err := enc.Encode(jv); err != nil {
		// Logging stays best-effort, as with Logger, but the failure is
		// counted instead of vanishing.
		l.errs.Add(1)
	}
	return Continue
}

// WriteErrors returns the number of violation encodes that failed.
func (l *JSONLogger) WriteErrors() uint64 { return l.errs.Load() }

// Recorder accumulates violations in memory for later inspection; used by
// tests, the benchmark harness, and the leakcheck tool.
type Recorder struct {
	Violations []*Violation
	// Respond, if non-nil, selects the action per violation; otherwise
	// Continue.
	Respond func(v *Violation) Action
}

// HandleViolation records the violation.
func (r *Recorder) HandleViolation(v *Violation) Action {
	r.Violations = append(r.Violations, v)
	if r.Respond != nil {
		return r.Respond(v)
	}
	return Continue
}

// ByKind returns the recorded violations of one kind.
func (r *Recorder) ByKind(k Kind) []*Violation {
	var out []*Violation
	for _, v := range r.Violations {
		if v.Kind == k {
			out = append(out, v)
		}
	}
	return out
}

// Reset clears the recorded violations.
func (r *Recorder) Reset() { r.Violations = nil }

// HaltError is returned by a collection during which a handler chose Halt.
type HaltError struct {
	Violation *Violation
}

// Error implements the error interface.
func (e *HaltError) Error() string {
	return "gc assertion failure (halt requested): " + strings.TrimRight(e.Violation.Format(), "\n")
}

// KindActions selects an action per assertion kind — the paper's future
// work: "It might make sense to support different actions based on the
// class of assertion that is violated." Kinds without an entry Continue.
// Wrap in a Tee with a Logger to keep reporting.
type KindActions map[Kind]Action

// HandleViolation returns the action configured for the violation's kind.
func (m KindActions) HandleViolation(v *Violation) Action { return m[v.Kind] }

// Tee fans a violation out to several handlers; the most severe action
// wins (Halt > Force > Continue).
type Tee []Handler

// HandleViolation invokes every handler and combines their actions.
func (t Tee) HandleViolation(v *Violation) Action {
	out := Continue
	for _, h := range t {
		if a := h.HandleViolation(v); a > out {
			out = a
		}
	}
	return out
}
