// Command heapinfo runs a case study to a steady state and prints a
// class histogram of the live heap — the kind of heap-census view the
// paper's related work (Cork, LeakBot) builds its diagnoses on, here used
// to corroborate what the assertions report.
//
//	heapinfo jbb            histogram of the leaky SPEC JBB2000 heap
//	heapinfo -fixed jbb     histogram with the leaks repaired
//	heapinfo db | swapleak
//	heapinfo -save h.bin jbb   also write a heap snapshot for offline use
//	heapinfo -load h.bin       histogram a previously saved snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/heapdump"
	"repro/internal/jbb"
	"repro/internal/minidb"
	"repro/internal/swapleak"
)

// options collects the flag and argument values so validation is testable
// apart from flag parsing and execution.
type options struct {
	fixed bool
	save  string
	load  string
	args  []string
}

// validate rejects invalid invocations up front — exit code 2 with a
// message, never a panic mid-run or a silently ignored flag.
func validate(o options) error {
	if o.load != "" {
		if len(o.args) != 0 {
			return fmt.Errorf("-load %s replaces running a case study; drop the %q argument", o.load, o.args[0])
		}
		if o.fixed {
			return fmt.Errorf("-fixed selects the variant to run; it does not apply to a loaded snapshot")
		}
		if o.save != "" {
			return fmt.Errorf("-save records a fresh run; it does not apply to a loaded snapshot")
		}
		return nil
	}
	if len(o.args) != 1 {
		return fmt.Errorf("usage: heapinfo [-fixed] [-save file] jbb|db|swapleak, or heapinfo -load file")
	}
	switch o.args[0] {
	case "jbb", "db", "swapleak":
	default:
		return fmt.Errorf("unknown case study %q (want jbb, db, or swapleak)", o.args[0])
	}
	return nil
}

func main() {
	fixed := flag.Bool("fixed", false, "run the repaired variant")
	save := flag.String("save", "", "write a heap snapshot to this file after the run")
	load := flag.String("load", "", "histogram a saved snapshot instead of running a case study")
	flag.Parse()

	opts := options{fixed: *fixed, save: *save, load: *load, args: flag.Args()}
	if err := validate(opts); err != nil {
		fmt.Fprintf(os.Stderr, "heapinfo: %v\n", err)
		os.Exit(2)
	}

	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heapinfo: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		rt, err := heapdump.Read(f, 1<<21)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heapinfo: %v\n", err)
			os.Exit(1)
		}
		histogram(rt)
		return
	}

	rt := core.New(core.Config{HeapWords: 1 << 20, Mode: core.Infrastructure})

	switch flag.Arg(0) {
	case "jbb":
		b := jbb.New(rt, jbb.Config{
			LeakOrderTable: !*fixed,
			ClearLastOrder: *fixed,
		})
		b.RunTransactions(2000)
	case "db":
		d := minidb.New(rt, minidb.Config{Entries: 5000, LeakCache: !*fixed})
		d.RunOps(400)
	case "swapleak":
		p := swapleak.New(rt, swapleak.Config{Objects: 256, StaticRep: *fixed})
		for i := 0; i < 4; i++ {
			p.RunSwapLoop()
		}
	}

	if err := rt.GC(); err != nil {
		fmt.Fprintf(os.Stderr, "heapinfo: %v\n", err)
		os.Exit(1)
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintf(os.Stderr, "heapinfo: %v\n", err)
			os.Exit(1)
		}
		if err := heapdump.Write(f, rt); err != nil {
			fmt.Fprintf(os.Stderr, "heapinfo: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote snapshot %s\n", *save)
	}

	histogram(rt)
}

func histogram(rt *core.Runtime) {
	type row struct {
		class string
		count int
		words uint64
	}
	byClass := map[string]*row{}
	for _, o := range rt.LiveSet() {
		r := byClass[o.Class]
		if r == nil {
			r = &row{class: o.Class}
			byClass[o.Class] = r
		}
		r.count++
		r.words += uint64(o.Words)
	}

	rows := make([]*row, 0, len(byClass))
	for _, r := range byClass {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].words > rows[j].words })

	st := rt.Stats()
	fmt.Printf("live heap after GC: %d objects, %d words (%.1f%% of %d)\n\n",
		st.Heap.LiveObjects, st.Heap.LiveWords,
		100*float64(st.Heap.LiveWords)/float64(st.Heap.CapacityWords),
		st.Heap.CapacityWords)
	fmt.Printf("%-16s %10s %12s\n", "class", "objects", "words")
	for _, r := range rows {
		fmt.Printf("%-16s %10d %12d\n", r.class, r.count, r.words)
	}
}
