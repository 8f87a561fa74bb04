package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// benchmarkNames is what BENCHMARK.json promises the driver.
type benchmarkNames struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

var nameSyntax = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(list []struct{ Name string }) []string {
	var out []string
	for _, e := range list {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at the -short scale, untraced and traced,
// and holds the output to BENCHMARK.json: each promised name emitted exactly
// once and nothing else, the run correct, the dumped spans nested, and the
// traced time accounted for.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkNames
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var inCode []string
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	sort.Strings(inCode)
	if got := names(bf.Workloads); !slices.Equal(got, inCode) {
		t.Fatalf("BENCHMARK.json workloads %v, the program has %v", got, inCode)
	}
	for _, n := range append(append(names(bf.Workloads), names(bf.EndToEnd)...), names(bf.PerLayer)...) {
		if !nameSyntax.MatchString(n) {
			t.Errorf("name %q breaks the contract's syntax", n)
		}
	}

	// All five at once: the windows are wall-clock time, so the smoke takes
	// as long as its slowest workload. Timings are not asserted on.
	type pass struct {
		res result
		err error
	}
	outs := make([]string, len(workloads))
	passes := make([][2]pass, len(workloads))
	var wg sync.WaitGroup
	for i, w := range workloads {
		outs[i] = t.TempDir()
		wg.Add(1)
		go func(i int, w workload) {
			defer wg.Done()
			for j, traced := range []bool{false, true} {
				cfg := runConfig{w: w, sz: shortSizes, seed: 1, window: time.Second, traced: traced, outDir: outs[i]}
				passes[i][j].res, passes[i][j].err = runPass(cfg)
			}
		}(i, w)
	}
	wg.Wait()

	for i, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, p := range passes[i] {
				res, traced := p.res, p.res.traced
				if p.err != nil {
					t.Fatalf("traced=%v: %v", traced, p.err)
				}
				if !res.correct() {
					t.Errorf("traced=%v: violations: %v", traced, res.violations)
				}
				if res.attempted < 1 {
					t.Errorf("traced=%v: nothing attempted", traced)
				}
				want := names(bf.EndToEnd)
				if traced {
					want = names(bf.PerLayer)
				}
				var got []string
				for _, m := range res.metrics {
					got = append(got, m.name)
					if m.name == "trace.coverage" && (m.value < 0.9 || m.value > 1.1) {
						t.Errorf("trace.coverage = %v, want 0.9..1.1", m.value)
					}
				}
				sort.Strings(got)
				if !slices.Equal(got, want) {
					t.Errorf("traced=%v: emitted names differ from BENCHMARK.json:\n got %v\nwant %v", traced, got, want)
				}
			}
			checkDump(t, filepath.Join(outs[i], "trace-"+w.name+".json"))
		})
	}
}

// checkDump reads a span dump back and checks that it holds requests and
// that every span lies inside its parent unless it is marked async.
func checkDump(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int64]span{}
	requests := 0
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == spanRequest {
			requests++
		}
	}
	if requests == 0 {
		t.Fatalf("%s holds no %s span", path, spanRequest)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %d (%s) names a parent that is not in the dump", s.ID, s.Name)
		case s.Start < p.Start || (s.End > p.End && !s.Async):
			t.Errorf("span %d (%s %s) [%d,%d] does not nest in its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Msg, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		case s.Request != p.Request:
			t.Errorf("span %d (%s) belongs to request %d, its parent to %d", s.ID, s.Name, s.Request, p.Request)
		}
	}
}
