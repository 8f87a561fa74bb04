// mystore-bench regenerates the paper's evaluation: every figure of §6,
// the §6.1 context scalars, a shortened soak, and the design-choice
// ablations. Results print in the same rows/series the paper reports.
//
// Usage:
//
//	mystore-bench [flags] <experiment>
//
// Experiments: fig11, fig12, fig13 (covers Fig 14 too), fig15, fig16,
// fig17, context, soak, chaos, ablate, read_path, repair, storage, all. The
// read_path experiment is the A8 study: read tail latency under one slow
// replica for the quorum-first/hedged/coalesced read path, plus the hot-key
// coalescing bound. The repair experiment is the A9 study: crash recovery
// time, reconciliation metadata and bytes moved for Merkle anti-entropy
// with streamed transfer, plus foreground read p99 under
// bandwidth-throttled repair. The storage experiment is the A10
// study: restart cost with a checkpointed WAL vs full-history replay,
// resident heap for a dataset ~10x the memtable budget, and foreground
// read p99 during rate-limited background compaction. The consensus
// experiment is the A11 study: the write-latency cost of linearizable
// (consensus-replicated) puts against eventual quorum puts, lease-served
// leader-local strong reads against quorum reads, and strong-write downtime
// across a leader kill -9. The chaos experiment
// is the resilience gate: randomized Table 2 faults plus kill -9
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
//	-json FILE      record headline numbers (MB/s, req/s, p95) per figure,
//	                merging into FILE so successive runs accumulate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mystore/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run at smoke-test scale")
	items := flag.Int("items", 0, "put-experiment operation count")
	readItems := flag.Int("read-items", 0, "read corpus size")
	step := flag.Duration("step", 0, "per-run measurement window")
	seed := flag.Int64("seed", 0, "RNG seed")
	jsonPath := flag.String("json", "", "merge per-figure results into this JSON file")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mystore-bench [flags] fig11|fig12|fig13|fig15|fig16|fig17|context|soak|chaos|ablate|read_path|repair|storage|consensus|all")
		os.Exit(2)
	}

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

	which := flag.Arg(0)
	if which == "fig14" {
		which = "fig13" // one sweep produces both figures' series
	}
	run := func(name string, fn func() (fmt.Stringer, error)) {
		if which != name && which != "all" {
			return
		}
		start := time.Now()
		res, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		if *jsonPath != "" {
			if err := recordJSON(*jsonPath, name, res); err != nil {
				fmt.Fprintf(os.Stderr, "%s: record %s: %v\n", name, *jsonPath, err)
				os.Exit(1)
			}
		}
	}

	tmp, err := os.MkdirTemp("", "mystore-bench-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)

	run("fig11", func() (fmt.Stringer, error) { return experiments.RunFig11(scale, tmp) })
	run("fig12", func() (fmt.Stringer, error) { return experiments.RunFig12(scale, tmp) })
	run("fig13", func() (fmt.Stringer, error) { return experiments.RunFig13(scale) })
	run("fig15", func() (fmt.Stringer, error) { return experiments.RunFig15(scale) })
	run("fig16", func() (fmt.Stringer, error) { return experiments.RunFig16(scale) })
	run("fig17", func() (fmt.Stringer, error) { return experiments.RunFig17(scale) })
	run("context", func() (fmt.Stringer, error) { return experiments.RunContext(scale) })
	run("soak", func() (fmt.Stringer, error) { return experiments.RunSoak(scale) })
	run("chaos", func() (fmt.Stringer, error) {
		res, err := experiments.RunChaos(scale, filepath.Join(tmp, "chaos"))
		if err == nil && res.Violations() > 0 {
			fmt.Println(res.String())
			err = fmt.Errorf("chaos: %d invariant violations", res.Violations())
		}
		return res, err
	})
	run("ablate", func() (fmt.Stringer, error) { return experiments.RunAblations(scale) })
	run("read_path", func() (fmt.Stringer, error) { return experiments.RunReadPathAblation(scale) })
	run("repair", func() (fmt.Stringer, error) { return experiments.RunRepairAblation(scale) })
	run("storage", func() (fmt.Stringer, error) {
		return experiments.RunStorageAblation(scale, filepath.Join(tmp, "storage"))
	})
	run("consensus", func() (fmt.Stringer, error) { return experiments.RunConsensusAblation(scale) })

	switch which {
	case "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "context", "soak", "chaos", "ablate", "read_path", "repair", "storage", "consensus", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		os.Exit(2)
	}
}

// recordJSON merges one experiment's summary into the results file under
// its figure id, preserving entries written by earlier runs.
func recordJSON(path, name string, res fmt.Stringer) error {
	summary := experiments.JSONSummary(res)
	if summary == nil {
		return nil // experiment has no recorded form (context, soak)
	}
	all := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &all); err != nil {
			return fmt.Errorf("existing file is not a JSON object: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	enc, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	all[name] = enc
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
