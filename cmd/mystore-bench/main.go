// mystore-bench regenerates the paper's evaluation: every figure of §6,
// the §6.1 context scalars, a shortened soak, the chaos gate and the §5
// design-choice ablations. Results print in the same rows/series the paper
// reports.
//
// Usage:
//
//	mystore-bench [flags] <experiment>
//
// Experiments: fig11, fig12, fig13 (covers Fig 14 too; fig14 is an alias),
// fig15, fig16, fig17, context, soak, chaos, ablate (A1–A5), all. The chaos
// experiment is the resilience gate: randomized Table 2 faults plus kill -9
// crash-restarts and partitions over lsm-engine nodes, exiting non-zero if
// any acked write is lost, any hint queue fails to drain, any request
// overruns its deadline by more than one replica call timeout, repair
// regresses any record version, or recovery loads a torn table.
//
// Flags:
//
//	-quick          run at smoke-test scale
//	-items N        override the put-experiment operation count
//	-read-items N   override the read-corpus size
//	-step D         override the per-run measurement window
//	-seed N         override the RNG seed
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"mystore/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run at smoke-test scale")
	items := flag.Int("items", 0, "put-experiment operation count")
	readItems := flag.Int("read-items", 0, "read corpus size")
	step := flag.Duration("step", 0, "per-run measurement window")
	seed := flag.Int64("seed", 0, "RNG seed")
	flag.Parse()

	scale := experiments.Scale{}
	if *quick {
		scale = experiments.Quick()
	}
	if *items > 0 {
		scale.PutItems = *items
	}
	if *readItems > 0 {
		scale.ReadItems = *readItems
	}
	if *step > 0 {
		scale.StepDuration = *step
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	var tmp string // scratch directory, created once the name is known
	table := []struct {
		name string
		run  func() (fmt.Stringer, error)
	}{
		{"fig11", func() (fmt.Stringer, error) { return experiments.RunFig11(scale, tmp) }},
		{"fig12", func() (fmt.Stringer, error) { return experiments.RunFig12(scale, tmp) }},
		{"fig13", func() (fmt.Stringer, error) { return experiments.RunFig13(scale) }},
		{"fig15", func() (fmt.Stringer, error) { return experiments.RunFig15(scale) }},
		{"fig16", func() (fmt.Stringer, error) { return experiments.RunFig16(scale) }},
		{"fig17", func() (fmt.Stringer, error) { return experiments.RunFig17(scale) }},
		{"context", func() (fmt.Stringer, error) { return experiments.RunContext(scale) }},
		{"soak", func() (fmt.Stringer, error) { return experiments.RunSoak(scale) }},
		{"chaos", func() (fmt.Stringer, error) {
			res, err := experiments.RunChaos(scale, filepath.Join(tmp, "chaos"))
			if err == nil && res.Violations() > 0 {
				fmt.Println(res.String())
				err = fmt.Errorf("chaos: %d invariant violations", res.Violations())
			}
			return res, err
		}},
		{"ablate", func() (fmt.Stringer, error) { return experiments.RunAblations(scale) }},
	}

	names := make([]string, 0, len(table)+1)
	for _, e := range table {
		names = append(names, e.name)
	}
	names = append(names, "all")
	which := flag.Arg(0)
	if which == "fig14" {
		which = "fig13" // one sweep produces both figures' series
	}
	if flag.NArg() != 1 || !slices.Contains(names, which) {
		if flag.NArg() == 1 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		}
		fmt.Fprintf(os.Stderr, "usage: mystore-bench [flags] %s\n", strings.Join(names, "|"))
		os.Exit(2)
	}

	tmp, err := os.MkdirTemp("", "mystore-bench-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)

	for _, e := range table {
		if which != e.name && which != "all" {
			continue
		}
		start := time.Now()
		res, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}
