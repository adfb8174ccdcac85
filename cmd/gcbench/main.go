// Command gcbench regenerates the paper's performance figures:
//
//	gcbench -fig 2     Base vs Infrastructure total/mutator time (Figure 2)
//	gcbench -fig 3     Base vs Infrastructure GC time (Figure 3)
//	gcbench -fig 4     Base/Infrastructure/WithAssertions total time (Figure 4)
//	gcbench -fig 5     Base/Infrastructure/WithAssertions GC time (Figure 5)
//	gcbench -fig all   every paper figure
//
// Every figure runs the paper's configuration: stop-the-world collections,
// eager sweep, direct free-list allocation. The repository's other modes are
// measured layer by layer by the bench/ driver.
//
// -events FILE enables telemetry on every measured runtime and streams its
// NDJSON event log there (cmd/gcmon summarizes it); the published numbers
// run with telemetry disabled.
//
// Methodology follows the paper: fixed heaps at roughly twice each
// benchmark's minimum live size, warmup iterations discarded, repeated
// trials with 90% confidence intervals. Absolute times are host-dependent;
// the normalized columns are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/harness"
)

// figNames is the single source of truth for the accepted -fig values: the
// usage string, validate's accepted set, and its error message all derive
// from it (TestFigUsageMatchesValidate keeps them from drifting).
var figNames = []string{"2", "3", "4", "5", "all"}

// figList renders figNames as an English list ("2, 3, ..., or all").
func figList() string {
	last := len(figNames) - 1
	return strings.Join(figNames[:last], ", ") + ", or " + figNames[last]
}

// figUsage is the -fig flag's usage string.
func figUsage() string { return "figure to regenerate: " + figList() }

// options collects the flag values so validation is testable apart from
// flag parsing and execution.
type options struct {
	fig     string
	trials  int
	measure int
	warmup  int
	events  string
}

// validate rejects option values that would otherwise fail deep inside a
// measurement run.
func validate(o options) error {
	if !slices.Contains(figNames, o.fig) {
		return fmt.Errorf("unknown figure %q (want %s)", o.fig, figList())
	}
	if o.trials < 1 {
		return fmt.Errorf("-trials %d: need at least one trial", o.trials)
	}
	if o.measure < 1 {
		return fmt.Errorf("-measure %d: need at least one timed iteration", o.measure)
	}
	if o.warmup < 0 {
		return fmt.Errorf("-warmup %d: cannot be negative", o.warmup)
	}
	return nil
}

func main() {
	fig := flag.String("fig", "all", figUsage())
	trials := flag.Int("trials", harness.DefaultRunConfig.Trials, "trials per configuration")
	measure := flag.Int("measure", harness.DefaultRunConfig.Measure, "timed iterations per trial")
	warmup := flag.Int("warmup", harness.DefaultRunConfig.Warmup, "warmup iterations per trial")
	events := flag.String("events", "", "write telemetry NDJSON events from the measured runtimes to this file")
	quiet := flag.Bool("q", false, "suppress progress output")
	csvPath := flag.String("csv", "", "also write raw measurements to this CSV file")
	flag.Parse()

	opts := options{fig: *fig, trials: *trials, measure: *measure, warmup: *warmup, events: *events}
	if err := validate(opts); err != nil {
		fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
		os.Exit(2)
	}

	rc := harness.RunConfig{Warmup: opts.warmup, Measure: opts.measure, Trials: opts.trials}
	if opts.events != "" {
		f, err := os.Create(opts.events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		rc.EventSink = f
	}
	progress := func(name string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "measuring %s...\n", name)
		}
	}

	need23 := *fig == "2" || *fig == "3" || *fig == "all"
	need45 := *fig == "4" || *fig == "5" || *fig == "all"

	var allRows []harness.Row
	if need23 {
		rows := harness.RunFig23(rc, progress)
		allRows = append(allRows, rows...)
		if *fig == "2" || *fig == "all" {
			fmt.Println(harness.FormatFig2(rows))
		}
		if *fig == "3" || *fig == "all" {
			fmt.Println(harness.FormatFig3(rows))
		}
	}
	if need45 {
		rows := harness.RunFig45(rc, progress)
		allRows = append(allRows, rows...)
		if *fig == "4" || *fig == "all" {
			fmt.Println(harness.FormatFig4(rows))
		}
		if *fig == "5" || *fig == "all" {
			fmt.Println(harness.FormatFig5(rows))
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := harness.WriteCSV(f, allRows); err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}
