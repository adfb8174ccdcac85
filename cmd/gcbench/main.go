// Command gcbench regenerates the paper's performance figures:
//
//	gcbench -fig 2     Base vs Infrastructure total/mutator time (Figure 2)
//	gcbench -fig 3     Base vs Infrastructure GC time (Figure 3)
//	gcbench -fig 4     Base/Infrastructure/WithAssertions total time (Figure 4)
//	gcbench -fig 5     Base/Infrastructure/WithAssertions GC time (Figure 5)
//	gcbench -fig all   every paper figure
//	gcbench -fig pause incremental pause-distribution report (not a paper figure)
//	gcbench -fig sweep sweep-mode pause comparison (not a paper figure)
//	gcbench -fig alloc allocation-throughput comparison (not a paper figure)
//
// -incremental N selects the bounded mark budget for -fig pause; the paper
// figures themselves are always stop-the-world, as published.
// -concurrent switches -fig pause to the background-pacer report: the same
// churn workload under the stop-the-world collector and under the
// concurrent pacer at several trigger/slack settings, comparing
// mutator-visible latency tails and throughput.
// -lazysweep selects the lazy sweep for the paper figures (the published
// numbers use the default eager sweep); -fig sweep instead measures both
// modes side by side and rejects the flag.
// -allocbuf N runs the paper figures with per-thread bump allocation
// buffers of N words (the published numbers use the default direct
// free-list allocation); -fig alloc instead measures the direct allocator
// against several buffer sizes side by side and ignores the flag.
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
	"repro/internal/vmheap"
)

// figNames is the single source of truth for the accepted -fig values: the
// usage string, validate's accepted set, and its error message all derive
// from it (TestFigUsageMatchesValidate keeps them from drifting).
var figNames = []string{"2", "3", "4", "5", "all", "pause", "sweep", "alloc"}

// figList renders figNames as an English list ("2, 3, ..., or alloc").
func figList() string {
	last := len(figNames) - 1
	return strings.Join(figNames[:last], ", ") + ", or " + figNames[last]
}

// figUsage is the -fig flag's usage string.
func figUsage() string { return "figure to regenerate: " + figList() }

// options collects the flag values so validation is testable apart from
// flag parsing and execution.
type options struct {
	fig         string
	trials      int
	measure     int
	warmup      int
	incremental int
	concurrent  bool
	lazySweep   bool
	allocBuf    int
	events      string
}

// validate rejects option combinations that would otherwise fail deep
// inside a measurement run (or, worse, silently measure the wrong thing).
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
	if o.incremental < 0 {
		return fmt.Errorf("-incremental %d: mark budget cannot be negative", o.incremental)
	}
	if o.incremental > 0 && o.fig != "pause" {
		return fmt.Errorf("-incremental %d with -fig %s: the paper figures are stop-the-world as published; incremental budgets apply only to -fig pause", o.incremental, o.fig)
	}
	if o.concurrent && o.fig != "pause" {
		return fmt.Errorf("-concurrent with -fig %s: the background-pacer report applies only to -fig pause", o.fig)
	}
	if o.concurrent && o.incremental > 0 {
		return fmt.Errorf("-concurrent with -incremental %d: the pacer budgets its own mark slices against the allocation rate; the two modes cannot be combined", o.incremental)
	}
	if o.lazySweep && (o.fig == "sweep" || o.fig == "pause" || o.fig == "alloc") {
		return fmt.Errorf("-lazysweep selects a mode for the paper figures; -fig %s configures its own collector modes", o.fig)
	}
	if o.allocBuf < 0 {
		return fmt.Errorf("-allocbuf %d: cannot be negative", o.allocBuf)
	}
	if o.allocBuf > 0 && o.allocBuf < vmheap.MinBufferWords {
		return fmt.Errorf("-allocbuf %d: below the minimum buffer of %d words (use 0 for direct allocation)", o.allocBuf, vmheap.MinBufferWords)
	}
	if o.allocBuf > 0 && (o.fig == "sweep" || o.fig == "pause" || o.fig == "alloc") {
		return fmt.Errorf("-allocbuf selects a mode for the paper figures; -fig %s configures its own allocation modes", o.fig)
	}
	if o.events != "" && (o.fig == "sweep" || o.fig == "pause" || o.fig == "alloc") {
		return fmt.Errorf("-events streams telemetry from the paper-figure runs; -fig %s configures its own runtimes", o.fig)
	}
	return nil
}

func main() {
	fig := flag.String("fig", "all", figUsage())
	trials := flag.Int("trials", harness.DefaultRunConfig.Trials, "trials per configuration")
	measure := flag.Int("measure", harness.DefaultRunConfig.Measure, "timed iterations per trial")
	warmup := flag.Int("warmup", harness.DefaultRunConfig.Warmup, "warmup iterations per trial")
	incremental := flag.Int("incremental", 0, "bounded mark budget for -fig pause (0 = stop-the-world)")
	concurrent := flag.Bool("concurrent", false, "run -fig pause as the background-pacer report (stop-the-world vs concurrent trigger/slack settings)")
	lazySweep := flag.Bool("lazysweep", false, "defer reclamation to allocation time for the paper figures")
	allocBuf := flag.Int("allocbuf", 0, "per-thread allocation buffer words for the paper figures (0 = direct free-list allocation, as published)")
	events := flag.String("events", "", "write telemetry NDJSON events from the measured runtimes to this file (paper figures only)")
	quiet := flag.Bool("q", false, "suppress progress output")
	csvPath := flag.String("csv", "", "also write raw measurements to this CSV file")
	flag.Parse()

	opts := options{
		fig:         *fig,
		trials:      *trials,
		measure:     *measure,
		warmup:      *warmup,
		incremental: *incremental,
		concurrent:  *concurrent,
		lazySweep:   *lazySweep,
		allocBuf:    *allocBuf,
		events:      *events,
	}
	if err := validate(opts); err != nil {
		fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
		os.Exit(2)
	}

	rc := harness.RunConfig{
		Warmup: *warmup, Measure: *measure, Trials: *trials,
		LazySweep:     *lazySweep,
		AllocBufWords: *allocBuf,
	}
	if *events != "" {
		f, err := os.Create(*events)
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

	if *fig == "alloc" {
		rows := harness.RunAllocReport(harness.DefaultAllocReport, progress)
		fmt.Println(harness.FormatAllocReport(harness.DefaultAllocReport, rows))
		return
	}

	if *fig == "sweep" {
		rows := harness.RunSweepReport(harness.DefaultSweepReport, progress)
		fmt.Println(harness.FormatSweepReport(harness.DefaultSweepReport, rows))
		return
	}

	if *fig == "pause" && *concurrent {
		rows := harness.RunConcurrentPacing(harness.DefaultConcurrentPacing, progress)
		fmt.Println(harness.FormatConcurrentPacing(rows))
		return
	}

	if *fig == "pause" {
		cfg := harness.DefaultPauseReport
		if *incremental > 0 {
			// A single explicit budget replaces the default sweep; budget 0
			// stays as the baseline row.
			cfg.Budgets = []int{0, *incremental}
		}
		rows := harness.RunPauseReport(cfg, progress)
		fmt.Println(harness.FormatPauseReport(rows))
		return
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
