package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json repeat mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns q1, median and q3 by linear interpolation between order
// statistics at (n+1)p, as Python's statistics.quantiles(v, n=4) does.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		i := int(pos)
		switch {
		case pos <= 0:
			return s[0]
		case i >= len(s)-1:
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// runRepeat runs the untraced pass of every workload k times, on seeds seed,
// seed+1, ..., and prints for each end-to-end metric its median, quartiles,
// (q3-q1)/median and (max-min)/median. A metric passes when its
// interquartile spread stays within the bound BENCHMARK.json fixes; setup_s
// is exempt, as it is at the gate. It returns the process's exit code.
func runRepeat(which []workload, k int, seed int64, run func(workload, int64, bool) result) int {
	var bf benchmarkFile
	if b, err := os.ReadFile("BENCHMARK.json"); err != nil {
		fmt.Fprintf(os.Stderr, "bench: -repeat needs BENCHMARK.json in the working directory: %v\n", err)
		return 2
	} else if err := json.Unmarshal(b, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
		return 2
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	code := 0
	for i := 0; i < k; i++ {
		for _, w := range which {
			res := run(w, seed+int64(i), false)
			printResult(res)
			if !res.correct() || res.failed > 0 {
				code = 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, m := range res.metrics {
				values[w.name][m.name] = append(values[w.name][m.name], m.value)
			}
		}
	}
	fmt.Printf("# repeat %d runs, seeds %d..%d\n", k, seed, seed+int64(k)-1)
	fmt.Println("# workload metric median q1 q3 iqr/median range/median bound verdict")
	for _, w := range which {
		for _, e := range bf.EndToEnd {
			v := values[w.name][e.Name]
			if len(v) == 0 {
				fmt.Printf("%s %s not reported FAIL\n", w.name, e.Name)
				code = 1
				continue
			}
			q1, med, q3 := quartiles(v)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			verdict := "PASS"
			switch {
			case e.Name == "setup_s":
				verdict = "EXEMPT"
			case (q3-q1)/med > e.Bound:
				verdict, code = "FAIL", 1
			}
			fmt.Printf("%s %s %.6g %.6g %.6g %.4f %.4f %.2f %s\n",
				w.name, e.Name, med, q1, q3, (q3-q1)/med, (hi-lo)/med, e.Bound, verdict)
		}
	}
	return code
}
