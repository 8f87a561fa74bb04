package experiments

// JSON summaries for BENCH_results.json. Each experiment result reduces to
// the headline numbers a reader (or the acceptance checks) wants — MB/s,
// req/s, p95 — plus the full series for the sweep-shaped figures. Keys are
// snake_case so the file diffs cleanly across bench runs.

// JSONSummary converts an experiment result into a marshal-friendly value
// for BENCH_results.json, or nil for results that are not recorded.
func JSONSummary(res any) any {
	switch r := res.(type) {
	case Fig11Result:
		rows := make([]map[string]any, 0, len(r.Rows))
		for _, row := range r.Rows {
			rows = append(rows, map[string]any{
				"system":       row.System,
				"mb_per_sec":   round2(row.MBPerSec),
				"req_per_sec":  round2(row.RPS),
				"mean_ttlb_ms": round2(row.MeanTTLBms),
				"errors":       row.Errors,
			})
		}
		return map[string]any{"rows": rows}
	case Fig12Result:
		rows := make([]map[string]any, 0, len(r.Rows))
		for _, row := range r.Rows {
			rows = append(rows, map[string]any{
				"system":       row.System,
				"class":        row.Class,
				"mean_ttfb_ms": round2(row.MeanTTFBms),
				"mean_ttlb_ms": round2(row.MeanTTLBms),
			})
		}
		return map[string]any{"rows": rows}
	case Fig13Result:
		return fig13JSON(r)
	case Fig15Result:
		return map[string]any{
			"records":    r.Records,
			"per_node":   r.PerNode,
			"total":      r.Total,
			"spread_pct": round2(r.SpreadPct),
		}
	case Fig16Result:
		ratio := 0.0
		if r.NoFaultMeanHits > 0 {
			ratio = r.FaultMeanHits / r.NoFaultMeanHits
		}
		return map[string]any{
			"no_fault_mean_req_per_sec": round2(r.NoFaultMeanHits),
			"fault_mean_req_per_sec":    round2(r.FaultMeanHits),
			"fault_over_no_fault":       round2(ratio),
		}
	case Fig17Result:
		ms := make([]float64, len(r.Thresholds))
		for i, th := range r.Thresholds {
			ms[i] = float64(th.Milliseconds())
		}
		return map[string]any{
			"ops":              r.Ops,
			"thresholds_ms":    ms,
			"mystore_no_fault": r.MyStoreNoFault,
			"mystore_fault":    r.MyStoreFault,
			"master_slave":     r.MasterSlave,
		}
	default:
		return nil
	}
}

// fig13JSON emits the sweep series plus the scalability headline: MB/s at
// the 800-process point as a fraction of the 200-process rate (the
// write-path PR's acceptance check — the seed regressed >50% here).
func fig13JSON(r Fig13Result) map[string]any {
	rows := make([]map[string]any, 0, len(r.Rows))
	var mbAt200, mbAt800 float64
	for _, row := range r.Rows {
		rows = append(rows, map[string]any{
			"processes":    row.Processes,
			"mean_ttfb_ms": round2(row.MeanTTFBms),
			"p95_ttfb_ms":  round2(row.P95TTFBms),
			"mb_per_sec":   round2(row.MBPerSec),
			"req_per_sec":  round2(row.RPS),
			"error_rate":   round2(row.ErrorRate),
		})
		switch row.Processes {
		case 200:
			mbAt200 = row.MBPerSec
		case 800:
			mbAt800 = row.MBPerSec
		}
	}
	out := map[string]any{"rows": rows}
	if mbAt200 > 0 && mbAt800 > 0 {
		out["mb_per_sec_at_200"] = round2(mbAt200)
		out["mb_per_sec_at_800"] = round2(mbAt800)
		out["sustained_at_800_pct"] = round2(100 * mbAt800 / mbAt200)
	}
	return out
}

func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}
