// Command flowersim runs the experiments registered in package flowercdn
// (flowercdn.Experiments): the tables, figures and ablations of the
// Flower-CDN paper's evaluation (EDBT 2009), and the scale and fault
// experiments that measure the simulator itself. `flowersim -list` names
// them, one line each.
//
// Usage:
//
//	flowersim -list                        # every experiment, with what it shows
//	flowersim -exp table2a                 # full paper scale (24 simulated hours)
//	flowersim -exp fig6 -scale small       # laptop-scale shape check
//	flowersim -exp all -hours 6 -seed 7    # the paper's evaluation on a shorter day, another seed
//	flowersim -exp table2b -parallel 4     # fan the points of a sweep over 4 workers
//	flowersim -exp faults -loss 0,0.05     # the fault storm with a custom loss-rate grid
//	flowersim -exp fig5 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Flags: -exp (an experiment of -list, or "all"), -scale (paper | small),
// -seed, -hours (override the simulated duration), -parallel (workers for an
// experiment's independent points; results are identical to the sequential
// run, every point owns its kernel, topology and metrics stack), -churn and
// -loss (see -list: massive, faults), -list, -quiet (no progress notes on
// stderr), -cpuprofile and -memprofile. Tables go to stdout and are
// deterministic per seed, wall-clock columns apart.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"flowercdn"
)

func main() {
	// The profile defers must run even on failure (os.Exit skips them, and
	// a truncated CPU profile is unreadable), so the real work returns an
	// exit code instead of exiting.
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flowersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "headline", "experiment to run (see -list)")
		scale      = fs.String("scale", "paper", "paper | small")
		seed       = fs.Int64("seed", 1, "simulation seed")
		hours      = fs.Int("hours", 0, "override simulated duration in hours")
		parallel   = fs.Int("parallel", 1, "sweep workers: 1 = sequential, N>1 = N workers, -1 = one per CPU")
		churn      = fs.Bool("churn", false, "massive: also run with the population-scaled failure injector")
		loss       = fs.String("loss", "", "faults: comma-separated loss fractions for the sweep (e.g. 0,0.05,0.15; default 0,0.01,0.02,0.05,0.1,0.2)")
		list       = fs.Bool("list", false, "list experiments and exit")
		quiet      = fs.Bool("quiet", false, "suppress progress notes on stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *hours < 0 {
		fmt.Fprintf(stderr, "-hours: %d is not a duration (0 keeps the experiment's own)\n", *hours)
		return 2
	}
	opts := flowercdn.Options{Hours: flowercdn.Time(*hours) * flowercdn.Hour, Churn: *churn, Parallel: *parallel}
	if *loss != "" {
		for _, tok := range strings.Split(*loss, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil || r < 0 || r > 1 {
				fmt.Fprintf(stderr, "-loss: %q is not a loss fraction in [0,1]\n", tok)
				return 2
			}
			opts.Loss = append(opts.Loss, r)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retained heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	exps := flowercdn.Experiments()
	if *list {
		for _, e := range exps {
			for _, v := range e.Views {
				fmt.Fprintf(stdout, "%-20s %s\n", v.Name, v.Doc)
			}
		}
		fmt.Fprintf(stdout, "%-20s %s\n", "all",
			"the paper's evaluation, each experiment simulated once (the scale and fault ones stay out: they measure the simulator)")
		return 0
	}
	// A name selects the experiment holding that view and only that view;
	// "all" every experiment of the paper's evaluation with all its views,
	// which share its simulations.
	type selection struct {
		exp         flowercdn.Experiment
		view, names string
	}
	var picked []selection
	for _, e := range exps {
		var names []string
		for _, v := range e.Views {
			names = append(names, v.Name)
			if v.Name == *exp {
				picked = append(picked, selection{e, v.Name, v.Name})
			}
		}
		if *exp == "all" && e.All {
			picked = append(picked, selection{e, "", strings.Join(names, "+")})
		}
	}
	if len(picked) == 0 {
		fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", *exp)
		return 2
	}

	var p flowercdn.Params
	switch *scale {
	case "paper":
		p = flowercdn.DefaultParams(*seed)
	case "small":
		p = flowercdn.ScaledParams(*seed)
	default:
		fmt.Fprintf(stderr, "unknown scale %q\n", *scale)
		return 2
	}

	notef := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	printed := false
	for _, sel := range picked {
		notef("=== %s (scale=%s) ===", sel.names, *scale)
		start := time.Now()
		tables, err := sel.exp.Run(p, opts, sel.view)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", sel.names, err)
			return 1
		}
		for _, t := range tables {
			if printed {
				fmt.Fprintln(stdout)
			}
			printed = true
			render(stdout, t)
		}
		notef("--- %s done in %s wall-clock", sel.names, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// render is the one formatter: title, then header and lines as one grid
// whose columns it aligns (two spaces apart, no trailing padding), then the
// notes verbatim.
func render(w io.Writer, t flowercdn.Table) {
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	grid := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if len(t.Header) > 0 {
		fmt.Fprintln(grid, strings.Join(t.Header, "\t"))
	}
	for _, line := range t.Lines {
		fmt.Fprintln(grid, strings.Join(line, "\t"))
	}
	grid.Flush()
	for _, note := range t.Notes {
		fmt.Fprintln(w, note)
	}
}
