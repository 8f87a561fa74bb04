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
	case ReadPathAblation:
		return readPathJSON(r)
	case RepairAblation:
		return repairJSON(r)
	case StorageAblation:
		return storageJSON(r)
	case ConsensusAblation:
		return consensusJSON(r)
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

// readPathJSON emits the A8 row (tail latency with one slow replica) and
// the hot-key coalescing bound (replica fan-out generations per client
// read).
func readPathJSON(a ReadPathAblation) map[string]any {
	row := a.Row
	return map[string]any{
		"readers":                 a.Readers,
		"corpus":                  a.Corpus,
		"slow_replica_one_way_ms": round2(a.SlowOneWayMs),
		"rows": []map[string]any{{
			"config":       row.Config,
			"reads":        row.Reads,
			"p50_ms":       round2(row.P50ms),
			"p95_ms":       round2(row.P95ms),
			"p99_ms":       round2(row.P99ms),
			"hedged_reads": row.HedgedReads,
			"errors":       row.Errors,
		}},
		"hot_key": map[string]any{
			"reads":           a.HotKey.Reads,
			"generations":     a.HotKey.Generations,
			"coalesced_reads": a.HotKey.Coalesced,
		},
	}
}

// repairJSON emits the A9 row (crash recovery time, reconciliation metadata
// and streamed volume, steady-state digest cost) and foreground read p99
// during throttled repair vs quiescent.
func repairJSON(a RepairAblation) map[string]any {
	row := a.Row
	return map[string]any{
		"records": a.Corpus,
		"rows": []map[string]any{{
			"config":              row.Config,
			"lost_replicas":       row.Lost,
			"recovery_ms":         round2(row.RecoveryMs),
			"sweeps":              row.Sweeps,
			"digest_bytes":        row.DigestBytes,
			"stream_bytes":        row.StreamBytes,
			"stream_records":      row.StreamRecords,
			"steady_digest_bytes": row.SteadyDigestBytes,
		}},
		"foreground": map[string]any{
			"repair_bandwidth_bps": a.Foreground.BandwidthBps,
			"reads":                a.Foreground.Reads,
			"quiescent_p99_ms":     round2(a.Foreground.QuiescentP99ms),
			"repair_p99_ms":        round2(a.Foreground.RepairP99ms),
			"throttle_wait_ms":     round2(a.Foreground.ThrottleWaitMs),
		},
	}
}

// storageJSON emits the A10 rows plus the storage PR's acceptance
// headlines: map restart time over lsm (checkpointed WAL, wants ≥10x), heap
// growth ratio for a dataset ~10x the memtable budget, and the foreground
// p99 penalty while rate-limited compaction runs (wants ≤25%).
func storageJSON(a StorageAblation) map[string]any {
	restart := make([]map[string]any, 0, len(a.Restart))
	for _, row := range a.Restart {
		restart = append(restart, map[string]any{
			"engine":       row.Engine,
			"history_ops":  row.Ops,
			"replayed_ops": row.ReplayedOps,
			"open_ms":      round2(row.OpenMs),
		})
	}
	m := a.Memory
	f := a.Foreground
	out := map[string]any{
		"restart": restart,
		"memory": map[string]any{
			"docs":            m.Docs,
			"dataset_bytes":   m.DatasetBytes,
			"memtable_bytes":  m.MemtableBudget,
			"map_heap_bytes":  m.MapHeapBytes,
			"lsm_heap_bytes":  m.LsmHeapBytes,
			"cold_p99_ms":     round2(m.ColdP99ms),
			"warm_p99_ms":     round2(m.WarmP99ms),
			"cache_hits":      m.CacheHits,
			"cache_misses":    m.CacheMisses,
			"bloom_negatives": m.BloomNegatives,
		},
		"foreground": map[string]any{
			"reads":                    f.Reads,
			"compaction_bandwidth_bps": f.BandwidthBps,
			"idle_p99_ms":              round2(f.IdleP99ms),
			"compacting_p99_ms":        round2(f.CompactingP99ms),
			"compactions":              f.Compactions,
			"compact_bytes":            f.CompactBytes,
			"throttle_wait_ms":         round2(f.ThrottleWaitMs),
		},
	}
	if s := a.restartSpeedup(); s > 0 {
		out["map_over_lsm_restart"] = round2(s)
	}
	if m.LsmHeapBytes > 0 {
		out["map_over_lsm_heap"] = round2(float64(m.MapHeapBytes) / float64(m.LsmHeapBytes))
	}
	if f.IdleP99ms > 0 {
		out["compacting_over_idle_p99"] = round2(f.CompactingP99ms / f.IdleP99ms)
	}
	return out
}

// consensusJSON emits the A11 rows plus the consensus PR's acceptance
// headlines: strong put p50 over eventual put p50 (wants ~2x, not an order
// of magnitude), eventual quorum read p50 over leader-local strong read p50
// (the lease's saved round trips), and failover downtime in election
// timeouts (wants < 10) with zero acked strong writes lost.
func consensusJSON(a ConsensusAblation) map[string]any {
	writes := make([]map[string]any, 0, len(a.Writes))
	var strongP50, eventualP50 float64
	for _, row := range a.Writes {
		writes = append(writes, map[string]any{
			"config":       row.Config,
			"writes":       row.Writes,
			"p50_ms":       round2(row.P50ms),
			"p95_ms":       round2(row.P95ms),
			"puts_per_sec": round2(row.PutsPerSec),
			"errors":       row.Errors,
		})
		switch row.Config {
		case "strong (consensus)":
			strongP50 = row.P50ms
		case "eventual (quorum W)":
			eventualP50 = row.P50ms
		}
	}
	reads := make([]map[string]any, 0, len(a.Reads))
	var localP50, quorumP50 float64
	for _, row := range a.Reads {
		reads = append(reads, map[string]any{
			"config": row.Config,
			"reads":  row.Reads,
			"p50_ms": round2(row.P50ms),
			"p95_ms": round2(row.P95ms),
			"errors": row.Errors,
		})
		switch row.Config {
		case "strong leader-local":
			localP50 = row.P50ms
		case "eventual quorum (R)":
			quorumP50 = row.P50ms
		}
	}
	f := a.Failover
	out := map[string]any{
		"writers": a.Writers,
		"writes":  writes,
		"reads":   reads,
		"failover": map[string]any{
			"election_timeout_ms": round2(f.ElectionTimeoutMs),
			"downtime_ms":         round2(f.DowntimeMs),
			"downtime_ets":        round2(f.DowntimeETs),
			"acked_before_kill":   f.AckedBeforeKill,
			"lost":                f.Lost,
		},
	}
	if eventualP50 > 0 && strongP50 > 0 {
		out["strong_over_eventual_put_p50"] = round2(strongP50 / eventualP50)
	}
	if localP50 > 0 && quorumP50 > 0 {
		out["quorum_over_leader_local_read_p50"] = round2(quorumP50 / localP50)
	}
	return out
}

func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}
