package main

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

func defaults() options {
	return options{
		fig:     "all",
		trials:  harness.DefaultRunConfig.Trials,
		measure: harness.DefaultRunConfig.Measure,
		warmup:  harness.DefaultRunConfig.Warmup,
	}
}

// TestFigUsageMatchesValidate pins the -fig usage string to validate's
// accepted set: both derive from figNames, and this test fails if either
// ever hardcodes its own list again.
func TestFigUsageMatchesValidate(t *testing.T) {
	usage := figUsage()
	for _, name := range figNames {
		if !strings.Contains(usage, name) {
			t.Errorf("usage string %q does not mention accepted figure %q", usage, name)
		}
		o := defaults()
		o.fig = name
		if err := validate(o); err != nil {
			t.Errorf("figure %q is advertised in the usage string but rejected: %v", name, err)
		}
	}
	// The error message for an unknown figure lists the same set.
	o := defaults()
	o.fig = "nope"
	err := validate(o)
	if err == nil {
		t.Fatal("validate accepted an unknown figure")
	}
	for _, name := range figNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-figure error %q does not list accepted figure %q", err, name)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	cases := []func(*options){
		func(o *options) {},
		func(o *options) { o.fig = "2" },
		func(o *options) { o.warmup = 0 },
		func(o *options) { o.events = "events.ndjson" },
	}
	for i, mut := range cases {
		o := defaults()
		mut(&o)
		if err := validate(o); err != nil {
			t.Errorf("case %d: validate(%+v) = %v, want nil", i, o, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		mut  func(*options)
		want string
	}{
		{func(o *options) { o.fig = "6" }, "unknown figure"},
		{func(o *options) { o.fig = "trace" }, "unknown figure"},
		{func(o *options) { o.trials = 0 }, "-trials"},
		{func(o *options) { o.measure = 0 }, "-measure"},
		{func(o *options) { o.warmup = -1 }, "-warmup"},
	}
	for i, c := range cases {
		o := defaults()
		c.mut(&o)
		err := validate(o)
		if err == nil {
			t.Errorf("case %d: validate(%+v) = nil, want error containing %q", i, o, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: validate(%+v) = %q, want it to contain %q", i, o, err, c.want)
		}
	}
}
