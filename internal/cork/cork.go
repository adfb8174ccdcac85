// Package cork implements a miniature heap-differencing leak detector in
// the style of Cork (Jump and McKinley, POPL 2007) — the baseline the
// paper contrasts GC assertions against: "Our information is similar to
// that provided by Cork, but much more precise: our path consists of
// object instances, not just types."
//
// After each full collection the detector takes a census of live volume
// per class and maintains a class points-from summary. Classes whose
// volume grows across a window of consecutive collections are reported as
// leak candidates, annotated with the classes that reference them. That
// is the whole diagnosis: a *type*-level trend with type-level context —
// no object instances, no paths, and inevitable false positives for data
// structures that legitimately grow. The contrast tests in this package
// and the jbb case study make the paper's comparison concrete.
package cork

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Config tunes the detector.
type Config struct {
	// Window is the number of consecutive growing observations required
	// before a class is reported (default 3).
	Window int
	// MinGrowthWords filters noise: total growth across the window must
	// reach this many words (default 64).
	MinGrowthWords int
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 3
	}
	if c.MinGrowthWords == 0 {
		c.MinGrowthWords = 64
	}
	return c
}

// Detector accumulates censuses across collections.
type Detector struct {
	cfg Config

	// history[class] holds live word volumes per observation.
	history map[string][]uint64
	// pointsFrom[class] holds the classes seen referencing it, from the
	// most recent census.
	pointsFrom map[string]map[string]bool

	observations int
}

// New creates a detector.
func New(cfg Config) *Detector {
	return &Detector{
		cfg:        cfg.withDefaults(),
		history:    map[string][]uint64{},
		pointsFrom: map[string]map[string]bool{},
	}
}

// Observe takes a census of the runtime's heap. Call it right after each
// full collection, so only live objects are counted.
func (d *Detector) Observe(rt *core.Runtime) {
	volumes := map[string]uint64{}
	pf := map[string]map[string]bool{}
	for _, o := range rt.LiveSet() {
		volumes[o.Class] += uint64(o.Words)
		for _, c := range rt.OutEdges(o.Ref) {
			target := rt.ClassOf(c).Name
			m := pf[target]
			if m == nil {
				m = map[string]bool{}
				pf[target] = m
			}
			m[o.Class] = true
		}
	}
	d.observations++
	// Classes absent from this census contribute an explicit zero, so a
	// structure that empties breaks its growth streak.
	for class := range d.history {
		if _, ok := volumes[class]; !ok {
			d.history[class] = append(d.history[class], 0)
		}
	}
	for class, words := range volumes {
		if _, ok := d.history[class]; !ok && d.observations > 1 {
			// Pad newly appeared classes so all histories align.
			d.history[class] = make([]uint64, d.observations-1)
		}
		d.history[class] = append(d.history[class], words)
	}
	d.pointsFrom = pf
}

// Candidate is one suspected leaking class.
type Candidate struct {
	Class string
	// GrowthWords is the volume increase across the detection window.
	GrowthWords uint64
	// Volumes is the full observation history (words per census).
	Volumes []uint64
	// PointedFromClasses lists the classes referencing instances of
	// Class in the latest census, sorted.
	PointedFromClasses []string
}

// String renders the candidate the way Cork-style tools report: a type
// and its referencing types — no instances, no paths.
func (c Candidate) String() string {
	return fmt.Sprintf("%s: +%d words over window (referenced by: %s)",
		c.Class, c.GrowthWords, strings.Join(c.PointedFromClasses, ", "))
}

// Candidates returns the classes whose volume grew monotonically across
// the last Window observations by at least MinGrowthWords, ranked by
// growth.
func (d *Detector) Candidates() []Candidate {
	var out []Candidate
	for class, vols := range d.history {
		if len(vols) < d.cfg.Window+1 {
			continue
		}
		recent := vols[len(vols)-d.cfg.Window-1:]
		growing := true
		for i := 1; i < len(recent); i++ {
			if recent[i] <= recent[i-1] {
				growing = false
				break
			}
		}
		if !growing {
			continue
		}
		growth := recent[len(recent)-1] - recent[0]
		if growth < uint64(d.cfg.MinGrowthWords) {
			continue
		}
		var from []string
		for f := range d.pointsFrom[class] {
			from = append(from, f)
		}
		sort.Strings(from)
		out = append(out, Candidate{
			Class:              class,
			GrowthWords:        growth,
			Volumes:            append([]uint64(nil), vols...),
			PointedFromClasses: from,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].GrowthWords != out[j].GrowthWords {
			return out[i].GrowthWords > out[j].GrowthWords
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// Observations returns the number of censuses taken.
func (d *Detector) Observations() int { return d.observations }
