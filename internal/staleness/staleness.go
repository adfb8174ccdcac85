// Package staleness implements a miniature staleness-based leak detector
// in the style of SWAT (Chilimbi and Hauswirth, ASPLOS 2004) and Bell
// (Bond and McKinley, ASPLOS 2006) — the heuristic baselines the paper
// contrasts GC assertions against: "objects that have not been accessed in
// a long time are probably memory leaks... These techniques, however, can
// only suggest potential leaks, which the programmer must then examine
// manually."
//
// The application reports accesses through Touch (the analog of SWAT's
// sampled read barrier); Advance, called after each collection, ages every
// live object and drops reclaimed ones. Stale returns the live objects
// idle past the threshold — a list that famously includes cold-but-needed
// data (false positives), which the contrast tests demonstrate against the
// assertion-based diagnosis of the same heap.
//
// The last-access table is a plain map: the tracker exists to show what
// the heuristic reports, not to be a fast profiler.
package staleness

import (
	"sort"

	"repro/internal/core"
)

// Tracker tracks last-access epochs per live object.
type Tracker struct {
	// Threshold is the number of epochs (collections) an object must go
	// untouched to be reported (default 3).
	Threshold uint64

	epoch uint64
	// last[r] is the epoch of r's most recent access, or of its first
	// sighting by Advance for an object never touched.
	last map[core.Ref]uint64
}

// New creates a tracker.
func New(threshold uint64) *Tracker {
	if threshold == 0 {
		threshold = 3
	}
	return &Tracker{Threshold: threshold, last: map[core.Ref]uint64{}}
}

// Touch records an access to r — call it wherever the application reads or
// writes the object (SWAT samples these; we record them all).
func (t *Tracker) Touch(r core.Ref) {
	if r != core.Nil {
		t.last[r] = t.epoch
	}
}

// Advance ages the tracker by one collection: call it right after a full
// GC. Reclaimed objects leave the table (their refs may be recycled);
// never-seen live objects enter it with the current epoch as their
// baseline.
func (t *Tracker) Advance(rt *core.Runtime) {
	t.epoch++
	live := rt.LiveSet()
	next := make(map[core.Ref]uint64, len(live))
	for _, o := range live {
		last, ok := t.last[o.Ref]
		if !ok {
			last = t.epoch
		}
		next[o.Ref] = last
	}
	t.last = next
}

// StaleObject is one suspect.
type StaleObject struct {
	Ref        core.Ref
	Class      string
	IdleEpochs uint64
}

// Stale returns the live objects idle for at least Threshold epochs,
// most-stale first. Note what this is: a heuristic suspect list. Cold but
// perfectly live data lands here too.
func (t *Tracker) Stale(rt *core.Runtime) []StaleObject {
	var out []StaleObject
	for r, last := range t.last {
		if idle := t.epoch - last; idle >= t.Threshold {
			out = append(out, StaleObject{Ref: r, Class: rt.ClassOf(r).Name, IdleEpochs: idle})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IdleEpochs != out[j].IdleEpochs {
			return out[i].IdleEpochs > out[j].IdleEpochs
		}
		return out[i].Ref < out[j].Ref
	})
	return out
}

// Tracked returns the current table size (tools and tests).
func (t *Tracker) Tracked() int { return len(t.last) }
