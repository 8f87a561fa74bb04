// Command bench is the repository's benchmark: it boots the real stack in
// one process (5 storage nodes on loopback TCP, the cluster client, the REST
// gateway and its cache behind an HTTP server), drives it over HTTP from 2
// load-generator goroutines on 2 keep-alive connections, checks every
// response, and reports end-to-end metrics (untraced) and a per-layer budget
// timed from outside (traced). See README.md.
//
//	go run ./bench                      every workload, untraced then traced
//	go run ./bench -workload get_hot    one workload
//	go run ./bench -short               smoke scale: 1 s windows, 128 keys
//	go run ./bench -repeat 5            the suite 5 times; spread against BENCHMARK.json
//	go run ./bench --workload w --seed n --seconds s --trace 0|1
//	                                    one pass; the last line is its JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run (default: all)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 16, "length of the measured window")
	trace := flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); default both")
	short := flag.Bool("short", false, "smoke scale: 1 s windows, 128 keys")
	repeat := flag.Int("repeat", 0, "run the suite this many times (seed, seed+1, ...) and report each end-to-end metric's spread")
	out := flag.String("out", "bench/out", "directory for cluster data and span dumps")
	flag.Parse()

	sz := fullSizes
	if *short {
		sz, *seconds = shortSizes, 1
	}
	which := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		which = []workload{w}
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	tracedModes := []bool{false, true}
	if *trace >= 0 {
		tracedModes = []bool{*trace == 1}
	}
	printEnv(sz, *seed, *seconds)

	passes := 0
	run := func(w workload, seed int64, traced bool) result {
		if passes++; passes > 1 {
			resetRSSPeak()
		}
		res, err := runPass(runConfig{
			w: w, sz: sz, seed: seed, traced: traced, outDir: *out,
			window: time.Duration(*seconds) * time.Second,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		return res
	}

	if *repeat > 0 {
		os.Exit(runRepeat(which, *repeat, *seed, run))
	}
	correct := true
	for _, w := range which {
		for _, traced := range tracedModes {
			res := run(w, *seed, traced)
			printResult(res)
			correct = correct && res.correct()
		}
	}
	if !correct {
		os.Exit(1)
	}
}

// printEnv stamps the report with what the numbers depend on.
func printEnv(sz sizes, seed int64, seconds int) {
	commit, race := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "-race":
				race = s.Value == "true"
			}
		}
	}
	env := map[string]any{
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"kernel": kernelRelease(), "race": race, "seed": seed, "flush_policy": flushPolicy,
		"nodes": nodeCount, "nwr": fmt.Sprintf("%d,%d,%d", replicasN, writeQuorum, readQuorum), "load_conns": loadConns,
		"keys": sz.keys, "strong_keys": sz.strongKeys, "hot_keys": sz.hotKeys, "value_bytes": sz.valueBytes,
		"cache_bytes": sz.cacheBytes, "block_cache_bytes": sz.blockCacheBytes, "memtable_bytes": sz.memtableBytes,
		"mixed_open_rate": mixedOpenRate, "warmup_s": sz.warmup.Seconds(), "window_s": seconds, "setups": sz.setups,
	}
	b, _ := json.Marshal(env) // a map of strings and numbers always encodes
	fmt.Printf("# env %s\n", b)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric as a "workload metric value unit" line,
// then the pass's result as one JSON object on the last line.
func printResult(res result) {
	ms := map[string]jsonMetric{}
	for _, m := range res.metrics {
		fmt.Printf("%s %s %s %s\n", res.workload, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		ms[m.name] = jsonMetric{m.value, m.unit}
	}
	b, _ := json.Marshal(map[string]any{ // numbers and strings always encode
		"correct": res.correct(), "attempted": res.attempted, "failed": res.failed, "metrics": ms,
	})
	fmt.Printf("%s\n", b)
}
