package main

import (
	"runtime"
	"strings"
	"time"

	"mystore/internal/metrics"
)

// counters is a reading of every cumulative counter the layers expose
// through public accessors, summed over nodes, plus the two histograms whose
// medians are reported. The window's activity is the difference of two.
type counters struct {
	at      time.Time
	c       map[string]float64
	fsync   metrics.HistogramSnapshot
	propose metrics.HistogramSnapshot
	msgs    map[string]int64
}

func readCounters(st *stack) counters {
	c := map[string]float64{}
	out := counters{at: time.Now(), c: c}

	g := st.gw.Stats()
	c["rest.shed"] = float64(g.Shed)
	c["rest.deadline_misses"] = float64(g.DeadlineMisses)
	c["rest.errors"] = float64(g.Errors)
	t := st.gw.Cache.Stats()
	c["cache.hits"] = float64(t.Hits)
	c["cache.misses"] = float64(t.Misses)
	c["cache.evictions"] = float64(t.Evictions)

	for _, n := range st.nodes {
		ns := n.Coordinator().Stats()
		c["nwr.hedged"] += float64(ns.HedgedReads)
		c["nwr.coalesced"] += float64(ns.CoalescedReads)
		c["nwr.read_repairs"] += float64(ns.ReadRepairs)
		c["nwr.hints_stored"] += float64(ns.HintsStored)
		c["nwr.retried_replica_writes"] += float64(ns.RetriedReplicaWrites)

		ds := n.Store().Stats()
		c["docstore.scans"] += float64(ds.Scans)
		c["docstore.index_hits"] += float64(ds.IndexHits)
		if ws, ok := n.Store().WALStats(); ok {
			c["wal.appends"] += float64(ws.Appends)
			c["wal.fsyncs"] += float64(ws.Fsyncs)
			c["wal.batches"] += float64(ws.Batches)
			c["wal.batched_records"] += float64(ws.BatchedRecords)
			out.fsync = out.fsync.Merge(n.Store().WAL().FsyncLatency().Snapshot())
		}
		if e := n.Store().Engine(); e != nil {
			es := e.Stats()
			c["lsm.flush_bytes"] += float64(es.FlushBytes)
			c["lsm.compact_bytes_out"] += float64(es.CompactBytesOut)
			c["lsm.compactions"] += float64(es.Compactions)
			c["lsm.tables"] += float64(es.Tables) // a level, not a count of events
			c["lsm.block_cache_hits"] += float64(es.BlockCacheHits)
			c["lsm.block_cache_misses"] += float64(es.BlockCacheMisses)
			c["lsm.bloom_negatives"] += float64(es.BloomNegatives)
			c["lsm.throttle_wait_ns"] += float64(es.ThrottleWaitNanos)
		}
		if m := n.Consensus(); m != nil {
			cs := m.Stats()
			c["consensus.not_leader_rejects"] += float64(cs.NotLeaderRejects)
			c["consensus.elections"] += float64(cs.Elections)
			c["consensus.lease_expiries"] += float64(cs.LeaseExpiries)
			out.propose = out.propose.Merge(m.ProposeLatency().Snapshot())
		}
		c["resilience.breaker_opened"] += float64(n.Breakers().Stats().Opened)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["runtime.alloc_bytes"] = float64(ms.TotalAlloc)
	c["runtime.gc_cycles"] = float64(ms.NumGC)
	c["runtime.gc_pause_ns"] = float64(ms.PauseTotalNs)
	c["runtime.heap_inuse"] = float64(ms.HeapInuse) // a level

	c["cpu_ns"] = float64(cpuTime())
	c["io_write_bytes"] = float64(ioWriteBytes())

	if st.rec != nil {
		out.msgs = st.rec.msgCounts()
		c["cluster.backend_ops"] = float64(st.rec.backendOps.Load())
		c["cluster.client_calls"] = float64(st.rec.clientCalls.Load())
		c["consensus.strong_ops"] = float64(st.rec.strongOps.Load())
		c["consensus.client_calls"] = float64(st.rec.strongClientCalls.Load())
	}
	return out
}

// histDelta is the histogram of what was observed between two snapshots.
func histDelta(before, after metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	if len(before.Counts) != len(after.Counts) {
		return after
	}
	d := metrics.HistogramSnapshot{
		Bounds: after.Bounds,
		Counts: make([]int64, len(after.Counts)),
		Count:  after.Count - before.Count,
		Sum:    after.Sum - before.Sum,
	}
	for i := range d.Counts {
		d.Counts[i] = after.Counts[i] - before.Counts[i]
	}
	return d
}

// window is what happened between two counter readings.
type window struct {
	before, after counters
}

func (w window) delta(name string) float64 { return w.after.c[name] - w.before.c[name] }

// msgs sums the messages sent in the window whose type has one of the
// prefixes.
func (w window) msgs(prefixes ...string) float64 {
	var n int64
	for typ, after := range w.after.msgs {
		for _, p := range prefixes {
			if strings.HasPrefix(typ, p) {
				n += after - w.before.msgs[typ]
				break
			}
		}
	}
	return float64(n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func medianMs(h metrics.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Quantile(0.5)) / 1e6
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// counterMetrics derives the per-layer metrics that come from counters: the
// window's deltas over its client-visible ops.
func counterMetrics(w window, ops, puts, gets, userBytes float64) []metric {
	secs := w.after.at.Sub(w.before.at).Seconds()
	kops := ops / 1000
	cacheLookups := w.delta("cache.hits") + w.delta("cache.misses")
	blockLookups := w.delta("lsm.block_cache_hits") + w.delta("lsm.block_cache_misses")
	finds := w.delta("docstore.scans") + w.delta("docstore.index_hits")
	return []metric{
		{"rest.shed", w.delta("rest.shed"), "count"},
		{"rest.deadline_misses", w.delta("rest.deadline_misses"), "count"},
		{"rest.errors", w.delta("rest.errors"), "count"},
		{"cache.hit_share", ratio(w.delta("cache.hits"), cacheLookups), "share"},
		{"cache.evictions_per_kop", ratio(w.delta("cache.evictions"), kops), "1/kop"},
		{"cluster.attempts_per_op", ratio(w.delta("cluster.client_calls"), w.delta("cluster.backend_ops")), "1/op"},
		{"transport.msgs_per_put", ratio(w.msgs("node.put", "nwr.put.", "nwr.hint.store"), puts), "1/op"},
		{"transport.msgs_per_get", ratio(w.msgs("node.get", "nwr.get."), gets), "1/op"},
		{"transport.bg_msgs_per_s", ratio(w.msgs("gossip.", "node.ae.", "node.stream.", "nwr.hint.", "nwr.ping"), secs), "1/s"},
		{"nwr.hedged_per_kop", ratio(w.delta("nwr.hedged"), kops), "1/kop"},
		{"nwr.coalesced_per_kop", ratio(w.delta("nwr.coalesced"), kops), "1/kop"},
		{"nwr.read_repairs_per_kop", ratio(w.delta("nwr.read_repairs"), kops), "1/kop"},
		{"nwr.hints_stored", w.delta("nwr.hints_stored"), "count"},
		{"nwr.retried_replica_writes", w.delta("nwr.retried_replica_writes"), "count"},
		{"docstore.scan_share", ratio(w.delta("docstore.scans"), finds), "share"},
		{"wal.appends_per_put", ratio(w.delta("wal.appends"), puts), "1/op"},
		{"wal.fsyncs_per_put", ratio(w.delta("wal.fsyncs"), puts), "1/op"},
		{"wal.records_per_fsync", ratio(w.delta("wal.batched_records"), w.delta("wal.batches")), "1/fsync"},
		{"wal.fsync_p50_ms", medianMs(histDelta(w.before.fsync, w.after.fsync)), "ms"},
		{"lsm.flush_bytes_per_user_byte", ratio(w.delta("lsm.flush_bytes"), userBytes), "x"},
		{"lsm.compact_bytes_per_user_byte", ratio(w.delta("lsm.compact_bytes_out"), userBytes), "x"},
		{"lsm.compactions", w.delta("lsm.compactions"), "count"},
		{"lsm.tables_end", w.after.c["lsm.tables"], "count"},
		{"lsm.block_cache_hit_share", ratio(w.delta("lsm.block_cache_hits"), blockLookups), "share"},
		{"lsm.bloom_negatives_per_get", ratio(w.delta("lsm.bloom_negatives"), gets), "1/op"},
		{"lsm.throttle_wait_ms", w.delta("lsm.throttle_wait_ns") / 1e6, "ms"},
		{"consensus.propose_p50_ms", medianMs(histDelta(w.before.propose, w.after.propose)), "ms"},
		{"consensus.msgs_per_put", ratio(w.msgs("cns."), puts), "1/op"},
		{"consensus.client_hops_per_op", ratio(w.delta("consensus.client_calls"), w.delta("consensus.strong_ops")), "1/op"},
		{"consensus.not_leader_rejects", w.delta("consensus.not_leader_rejects"), "count"},
		{"consensus.elections", w.delta("consensus.elections"), "count"},
		{"consensus.lease_expiries", w.delta("consensus.lease_expiries"), "count"},
		{"resilience.breaker_opened", w.delta("resilience.breaker_opened"), "count"},
		{"runtime.alloc_kb_per_op", ratio(w.delta("runtime.alloc_bytes")/1024, ops), "KiB/op"},
		{"runtime.gc_cycles", w.delta("runtime.gc_cycles"), "count"},
		{"runtime.gc_pause_ms", w.delta("runtime.gc_pause_ns") / 1e6, "ms"},
		{"runtime.heap_inuse_mb_end", w.after.c["runtime.heap_inuse"] / (1 << 20), "MiB"},
	}
}
