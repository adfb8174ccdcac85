package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/jbb"
	"repro/internal/minidb"
	"repro/internal/workloads"
)

// Row pairs the configurations of one benchmark for a figure.
type Row struct {
	Name  string
	Base  Measurement
	Infra Measurement
	// WithAsserts is set only for Figures 4/5.
	WithAsserts *Measurement
}

// workloadSubject adapts a workloads.Factory to a Subject under one mode.
func workloadSubject(f workloads.Factory, mode core.Mode) Subject {
	w := f()
	return Subject{
		Name:      w.Name(),
		HeapWords: w.HeapWords(),
		Mode:      mode,
		Build: func(rt *core.Runtime) func() {
			inst := f()
			th := rt.MainThread()
			inst.Setup(rt, th)
			return func() { inst.Iterate(rt, th) }
		},
	}
}

// RunFig23 measures the full synthetic suite in the Base and
// Infrastructure configurations (the data behind Figures 2 and 3). The two
// configurations of each benchmark are interleaved trial by trial to keep
// machine drift from biasing either.
func RunFig23(rc RunConfig, progress func(string)) []Row {
	var rows []Row
	for _, f := range workloads.Suite() {
		base := workloadSubject(f, core.Base)
		infra := workloadSubject(f, core.Infrastructure)
		if progress != nil {
			progress(base.Name)
		}
		ms := MeasureInterleaved([]Subject{base, infra}, rc)
		rows = append(rows, Row{Name: base.Name, Base: ms[0], Infra: ms[1]})
	}
	return rows
}

// DBSubject builds the _209_db application subject. withAsserts installs
// the paper's instrumentation (ownership on every Entry plus assert-dead
// at remove sites).
func DBSubject(mode core.Mode, withAsserts bool) Subject {
	label := ""
	if withAsserts {
		label = "WithAssertions"
	}
	return Subject{
		Name:      "db",
		HeapWords: 1 << 20,
		Mode:      mode,
		Label:     label,
		Build: func(rt *core.Runtime) func() {
			d := minidb.New(rt, minidb.Config{
				AssertOwnership:    withAsserts,
				AssertDeadOnRemove: withAsserts,
			})
			return func() { d.RunOps(200) }
		},
	}
}

// JBBSubject builds the pseudojbb application subject. withAsserts
// installs assert-ownedby at District.addOrder and the Company singleton
// limit. The known defects are repaired so the measurement reflects
// checking cost, not violation reporting.
func JBBSubject(mode core.Mode, withAsserts bool) Subject {
	label := ""
	if withAsserts {
		label = "WithAssertions"
	}
	return Subject{
		Name:      "pseudojbb",
		HeapWords: 1 << 16,
		Mode:      mode,
		Label:     label,
		Build: func(rt *core.Runtime) func() {
			b := jbb.New(rt, jbb.Config{
				ClearLastOrder:         true,
				ClearOldCompany:        true,
				AssertOwnedByOnAdd:     withAsserts,
				AssertCompanySingleton: withAsserts,
			})
			return func() { b.RunTransactions(600) }
		},
	}
}

// RunFig45 measures db and pseudojbb in the three configurations of
// Figures 4 and 5, interleaving the configurations trial by trial.
func RunFig45(rc RunConfig, progress func(string)) []Row {
	var rows []Row
	for _, build := range []func(core.Mode, bool) Subject{DBSubject, JBBSubject} {
		subjects := []Subject{
			build(core.Base, false),
			build(core.Infrastructure, false),
			build(core.Infrastructure, true),
		}
		if progress != nil {
			progress(subjects[0].Name)
		}
		ms := MeasureInterleaved(subjects, rc)
		rows = append(rows, Row{
			Name:        subjects[0].Name,
			Base:        ms[0],
			Infra:       ms[1],
			WithAsserts: &ms[2],
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Table rendering

// norm returns b as a percentage of a (Base = 100).
func norm(a, b Sample) float64 {
	if a.Mean == 0 {
		return 0
	}
	return 100 * b.Mean / a.Mean
}

// FormatFig2 renders normalized total and mutator time, Base = 100.
func FormatFig2(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: run-time overhead of the GC assertion infrastructure\n")
	fmt.Fprintf(&b, "(normalized to Base = 100; ±: 90%% CI of the Base mean in %%)\n\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %8s %8s %8s\n",
		"benchmark", "base(ms)", "infra(ms)", "total", "mutator", "±")
	var totals, muts []float64
	for _, r := range rows {
		nt := norm(r.Base.Total, r.Infra.Total)
		nm := norm(r.Base.Mutator, r.Infra.Mutator)
		totals = append(totals, nt)
		muts = append(muts, nm)
		ci := 0.0
		if r.Base.Total.Mean > 0 {
			ci = 100 * r.Base.Total.CI90 / r.Base.Total.Mean
		}
		fmt.Fprintf(&b, "%-12s %12.1f %12.1f %8.1f %8.1f %8.1f\n",
			r.Name, r.Base.Total.Mean*1000, r.Infra.Total.Mean*1000, nt, nm, ci)
	}
	fmt.Fprintf(&b, "%-12s %12s %12s %8.1f %8.1f\n", "geomean", "", "",
		GeoMean(totals), GeoMean(muts))
	fmt.Fprintf(&b, "\npaper: total +2.75%%, mutator +1.12%% (geomean)\n")
	return b.String()
}

// FormatFig3 renders normalized GC time, Base = 100.
func FormatFig3(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: GC-time overhead of the GC assertion infrastructure\n")
	fmt.Fprintf(&b, "(normalized to Base = 100)\n\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %8s\n", "benchmark", "base(ms)", "infra(ms)", "gc")
	var gcs []float64
	worst, worstName := 0.0, ""
	for _, r := range rows {
		ng := norm(r.Base.GC, r.Infra.GC)
		gcs = append(gcs, ng)
		if ng > worst {
			worst, worstName = ng, r.Name
		}
		fmt.Fprintf(&b, "%-12s %12.1f %12.1f %8.1f\n",
			r.Name, r.Base.GC.Mean*1000, r.Infra.GC.Mean*1000, ng)
	}
	fmt.Fprintf(&b, "%-12s %12s %12s %8.1f   (worst %s %.1f)\n",
		"geomean", "", "", GeoMean(gcs), worstName, worst)
	fmt.Fprintf(&b, "\npaper: GC time +13.36%% geomean, +30%% worst case (bloat)\n")
	return b.String()
}

// FormatFig4 renders the three-way total-time comparison for db and
// pseudojbb.
func FormatFig4(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: run-time overhead with GC assertions added\n")
	fmt.Fprintf(&b, "(normalized to Base = 100)\n\n")
	fmt.Fprintf(&b, "%-10s %10s %14s %15s %12s\n",
		"benchmark", "base", "infrastructure", "withassertions", "ownees/GC")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.1f %14.1f %15.1f %12d\n",
			r.Name, 100.0,
			norm(r.Base.Total, r.Infra.Total),
			norm(r.Base.Total, r.WithAsserts.Total),
			r.WithAsserts.OwneesChecked)
	}
	fmt.Fprintf(&b, "\npaper: db +1.02%%, pseudojbb +1.84%% total vs Base\n")
	return b.String()
}

// FormatFig5 renders the three-way GC-time comparison.
func FormatFig5(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: GC-time overhead with GC assertions added\n")
	fmt.Fprintf(&b, "(normalized to Base = 100)\n\n")
	fmt.Fprintf(&b, "%-10s %10s %14s %15s %12s\n",
		"benchmark", "base", "infrastructure", "withassertions", "ownees/GC")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.1f %14.1f %15.1f %12d\n",
			r.Name, 100.0,
			norm(r.Base.GC, r.Infra.GC),
			norm(r.Base.GC, r.WithAsserts.GC),
			r.WithAsserts.OwneesChecked)
	}
	fmt.Fprintf(&b, "\npaper: db +49.7%%, pseudojbb +15.3%% GC time vs Base\n")
	return b.String()
}
