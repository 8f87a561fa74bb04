package cluster

import (
	"fmt"

	"mystore/internal/metrics"
	"mystore/internal/transport"
	"mystore/internal/wal"
)

// RegisterMetrics adds this node's subsystem metrics to r, labeled
// node=<addr>. A process hosting several in-proc nodes points them all at the
// same registry: Register is idempotent per family name, so each node only
// contributes its own labeled source. All sources are lazy — nothing is
// sampled until a scrape.
func (n *Node) RegisterMetrics(r *metrics.Registry) {
	addr := n.Addr()
	store := n.store
	coord := n.coord

	r.Register("mystore_store_documents", "Documents held in the local document store.", metrics.TypeGauge, "node").
		Add(addr, func() float64 { return float64(store.Stats().Documents) })
	r.Register("mystore_store_bytes", "Payload bytes held in the local document store.", metrics.TypeGauge, "node").
		Add(addr, func() float64 { return float64(store.Stats().DataBytes) })

	r.Register("mystore_nwr_puts_total", "Coordinator writes started on this node.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(coord.Stats().Puts) })
	r.Register("mystore_nwr_gets_total", "Coordinator reads started on this node.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(coord.Stats().Gets) })
	r.Register("mystore_nwr_put_seconds", "Coordinator write latency until the W quorum acknowledged.", metrics.TypeHistogram, "node").
		AddHistogram(addr, 1e-9, coord.PutLatency().Snapshot)
	r.Register("mystore_nwr_get_seconds", "Coordinator read latency until the R quorum answered.", metrics.TypeHistogram, "node").
		AddHistogram(addr, 1e-9, coord.GetLatency().Snapshot)
	r.Register("mystore_hints_queued", "Hinted-handoff records parked on this node awaiting delivery.", metrics.TypeGauge, "node").
		Add(addr, func() float64 { return float64(coord.HintCount()) })

	r.Register("mystore_nwr_hedged_reads_total", "Reserve replica reads launched early by the hedge timer or a failed read, one per key and reserve.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(coord.Stats().HedgedReads) })
	r.Register("mystore_nwr_batch_gets_total", "Batched multi-get operations coordinated on this node.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(coord.Stats().BatchGets) })
	r.Register("mystore_nwr_repair_backlog", "Read-repair jobs queued or in flight on the async repair pool, plus repair probes queued for or riding a batched digest read.", metrics.TypeGauge, "node").
		Add(addr, func() float64 { return float64(coord.RepairBacklog()) })
	r.Register("mystore_nwr_read_repair_dropped_total", "Read repairs left to anti-entropy: the repair queue was full, or the newest record a digest named could not be fetched.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(coord.Stats().ReadRepairDropped) })

	r.Register("mystore_gossip_live_peers", "Ring members this node holds, itself included: every node gossip announced and the seeds have not declared long-failed.", metrics.TypeGauge, "node").
		Add(addr, func() float64 { return float64(n.ring.Len()) })

	r.Register("mystore_ae_rounds_total", "Merkle anti-entropy rounds initiated by this node.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(n.aeRounds.Load()) })
	r.Register("mystore_ae_digest_bytes_total", "Reconciliation metadata shipped: roots, leaf rows and record digests.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(n.aeDigestBytes.Load()) })
	r.Register("mystore_ae_leaves_diverged_total", "Merkle leaf ranges found divergent and reconciled.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(n.aeLeavesDiverged.Load()) })
	r.Register("mystore_ae_version_regressions_total", "Applied mutations that replaced a record with an older version (must stay 0).", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(n.aeRegressions.Load()) })
	r.Register("mystore_stream_batches_total", "Background-transfer record batches this node wrote and had acknowledged.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(coord.Stats().StreamBatches) })
	r.Register("mystore_stream_records_total", "Records moved by this node's acknowledged background-transfer batches.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(coord.Stats().StreamRecords) })
	r.Register("mystore_stream_bytes_total", "Payload bytes moved by this node's acknowledged background-transfer batches.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(coord.Stats().StreamBytes) })

	peers := coord.Peers()
	r.Register("mystore_breaker_open", "Peers this node's peer view holds suspect or down.", metrics.TypeGauge, "node").
		Add(addr, func() float64 { return float64(peers.NotUp()) })
	r.Register("mystore_breaker_opened_total", "Peer-view entries into suspect or down, failed probes included.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(peers.Stats().Opened) })
	r.Register("mystore_breaker_fastfail_total", "Calls refused instantly because the peer view held their peer suspect or down.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(peers.Stats().FastFailures) })

	eng := store.Engine()
	r.Register("mystore_lsm_memtable_bytes", "Bytes buffered in the lsm engine's mutable memtable.", metrics.TypeGauge, "node").
		Add(addr, func() float64 { return float64(eng.Stats().MemtableBytes) })
	r.Register("mystore_lsm_flushes_total", "Memtables flushed to SSTables.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(eng.Stats().Flushes) })
	r.Register("mystore_lsm_flush_bytes_total", "Bytes written by memtable flushes.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(eng.Stats().FlushBytes) })
	r.Register("mystore_lsm_sstables", "Live SSTables in the lsm engine.", metrics.TypeGauge, "node").
		Add(addr, func() float64 { return float64(eng.Stats().Tables) })
	r.Register("mystore_lsm_sstable_bytes", "Bytes held in live SSTables.", metrics.TypeGauge, "node").
		Add(addr, func() float64 { return float64(eng.Stats().TableBytes) })
	// Per-level table counts. Levels are created on demand; absent
	// levels read 0. Seven levels cover any realistic dataset under the
	// default 10x fanout.
	lvlFamily := r.Register("mystore_lsm_sstables_level", "Live SSTables per lsm level.", metrics.TypeGauge, "node_level")
	for lvl := 0; lvl < 7; lvl++ {
		lvl := lvl
		lvlFamily.Add(fmt.Sprintf("%s L%d", addr, lvl), func() float64 {
			counts := eng.Stats().TableCounts
			if lvl >= len(counts) {
				return 0
			}
			return float64(counts[lvl])
		})
	}
	r.Register("mystore_lsm_compactions_total", "Background compactions completed.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(eng.Stats().Compactions) })
	r.Register("mystore_lsm_compaction_read_bytes_total", "Bytes read by background compaction.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(eng.Stats().CompactBytesIn) })
	r.Register("mystore_lsm_compaction_written_bytes_total", "Bytes written by background compaction.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(eng.Stats().CompactBytesOut) })
	r.Register("mystore_lsm_block_cache_hits_total", "SSTable block reads served from the block cache.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(eng.Stats().BlockCacheHits) })
	r.Register("mystore_lsm_block_cache_misses_total", "SSTable block reads that went to disk.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(eng.Stats().BlockCacheMisses) })
	r.Register("mystore_lsm_bloom_negatives_total", "Table probes skipped because the bloom filter excluded the key.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(eng.Stats().BloomNegatives) })

	log := store.WAL()
	r.Register("mystore_wal_replay_ops_total", "WAL records re-applied by the last store open (restart cost).", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(store.ReplayedOps()) })
	r.Register("mystore_wal_appends_total", "Records appended to the write-ahead log.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(log.Stats().Appends) })
	r.Register("mystore_wal_fsyncs_total", "fsync syscalls issued by the write-ahead log.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(log.Stats().Fsyncs) })
	r.Register("mystore_wal_fsync_seconds", "WAL fsync latency.", metrics.TypeHistogram, "node").
		AddHistogram(addr, 1e-9, log.FsyncLatency().Snapshot)
	r.Register("mystore_wal_batch_records", "Records made durable per group-commit fsync.", metrics.TypeHistogram, "node").
		AddHistogram(addr, 1, log.BatchSizes().Snapshot)
	registerWALSegments(r, "mystore_wal", "write-ahead log", addr, log.Stats)

	if cns := n.cns; cns != nil {
		r.Register("mystore_consensus_ranges_led", "Consensus ranges this node currently leads.", metrics.TypeGauge, "node").
			Add(addr, func() float64 { return float64(cns.RangesLed()) })
		r.Register("mystore_consensus_elections_total", "Elections this node started (candidate transitions).", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().Elections) })
		r.Register("mystore_consensus_elections_won_total", "Elections this node won.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().ElectionsWon) })
		r.Register("mystore_consensus_leader_changes_total", "Observed leader changes across this node's ranges.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().LeaderChanges) })
		r.Register("mystore_consensus_proposals_total", "Strong writes proposed to a log this node leads.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().Proposals) })
		r.Register("mystore_consensus_commits_total", "Log entries committed on this node.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().Commits) })
		r.Register("mystore_consensus_applies_total", "Committed entries applied to the local store.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().Applies) })
		r.Register("mystore_consensus_not_leader_rejects_total", "Strong requests refused because this node does not lead the range.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().NotLeaderRejects) })
		r.Register("mystore_consensus_lease_expiries_total", "Leaderships stepped down because the quorum lease expired.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().LeaseExpiries) })
		r.Register("mystore_consensus_stale_term_rejects_total", "Append RPCs refused for carrying a stale term (fencing).", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().StaleTermRejects) })
		r.Register("mystore_consensus_snapshots_sent_total", "Snapshot catch-up transfers sent to lagging followers.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().SnapshotsSent) })
		r.Register("mystore_consensus_snapshots_installed_total", "Snapshot catch-ups installed on this node.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().SnapshotsInstalled) })
		r.Register("mystore_consensus_strong_reads_total", "Leader-local linearizable reads served.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.Stats().StrongReads) })
		r.Register("mystore_consensus_propose_seconds", "Strong write latency through the replicated log (propose to commit).", metrics.TypeHistogram, "node").
			AddHistogram(addr, 1e-9, cns.ProposeLatency().Snapshot)
		// Applies trail the commit index off the reply path; the lag is the
		// only place a stalled applier shows.
		lagFamily := r.Register("mystore_consensus_apply_lag", "Committed log entries not yet applied to the local store, per range.", metrics.TypeGauge, "node_range")
		// A follower that stops acking pins its range's log: the range's
		// entries stay near the 1024-entry log bound instead of the few in flight.
		heldFamily := r.Register("mystore_consensus_log_entries", "Log entries held in memory, per range.", metrics.TypeGauge, "node_range")
		for rid := 0; rid < n.cfg.StrongRanges; rid++ {
			label := fmt.Sprintf("%s r%d", addr, rid)
			lagFamily.Add(label, func() float64 { return float64(cns.ApplyLag(rid)) })
			heldFamily.Add(label, func() float64 { return float64(cns.LogEntries(rid)) })
		}
		r.Register("mystore_consensus_wal_appends_total", "Records appended to the consensus log's WAL.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.WALStats().Appends) })
		r.Register("mystore_consensus_wal_fsyncs_total", "fsync syscalls issued by the consensus log's WAL.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.WALStats().Fsyncs) })
		r.Register("mystore_consensus_wal_batched_records_total", "Consensus WAL records made durable by group fsyncs.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(cns.WALStats().BatchedRecords) })
		registerWALSegments(r, "mystore_consensus_wal", "consensus log's WAL", addr, cns.WALStats)
	}

	if ins, ok := n.tr.(transport.Instrumented); ok {
		r.Register("mystore_rpc_seconds", "Outbound RPC latency by destination peer.", metrics.TypeHistogram, "peer").
			AddHistogramVec(1e-9, ins.RPCLatency().Snapshots)
		r.Register("mystore_transport_deadline_dropped_total", "Requests dropped on arrival because the propagated deadline had expired.", metrics.TypeCounter, "node").
			Add(addr, func() float64 { return float64(ins.DeadlineDropped()) })
	}
}

// registerWALSegments exports what a log's cheap fsync depends on: appends
// overwrite preallocated blocks only while spares keep arriving. A syncing
// log whose cold_appends keeps rising is one whose spare never does; a log
// that does not sync its appends prepares none, and every append is cold.
func registerWALSegments(r *metrics.Registry, prefix, what, addr string, stats func() wal.SyncStats) {
	r.Register(prefix+"_segments_prepared_total", "Spare segments zero-filled for the "+what+".", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(stats().SegmentsPrepared) })
	r.Register(prefix+"_segments_reused_total", "Dropped segments of the "+what+" recycled as its spare instead of deleted.", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(stats().SegmentsReused) })
	r.Register(prefix+"_cold_appends_total", "Appends to the "+what+" that landed in a segment not preallocated (the fsync behind them also extends the file).", metrics.TypeCounter, "node").
		Add(addr, func() float64 { return float64(stats().ColdAppends) })
}
