package mystore_test

// TestObsSmoke is the observability smoke test `make obs-smoke` runs: it
// boots a full gateway over an in-process durable cluster, drives traffic
// through the HTTP front end, then scrapes /metrics and asserts every
// required metric family — spanning the gateway, dispatch, cache, WAL, NWR,
// gossip, resilience and transport subsystems — is exported, that /stats
// kept its historical JSON keys, and that /debug/traces serves the traffic's
// traces.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mystore"
)

func TestObsSmoke(t *testing.T) {
	cl, err := mystore.StartCluster(mystore.ClusterOptions{
		Nodes:         5,
		DataDir:       t.TempDir(),
		Durable:       true,
		StorageEngine: "lsm",
		StrongRanges:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}

	reg := mystore.NewMetricsRegistry()
	cl.RegisterMetrics(reg)
	gw := mystore.NewGateway(mystore.ClusterBackend{Client: client}, mystore.GatewayOptions{
		CacheServers: 2,
		CacheBytes:   8 << 20,
		Metrics:      reg,
		Trace:        mystore.NewTraceCollector(time.Minute),
	})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	// Traffic: puts, a cache-hit get, and a miss, so counters and histograms
	// all have observations.
	for i := 0; i < 5; i++ {
		resp, err := http.Post(fmt.Sprintf("%s/data/key-%d", srv.URL, i),
			"application/octet-stream", strings.NewReader(strings.Repeat("x", 512)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST key-%d: status %d", i, resp.StatusCode)
		}
	}
	for _, key := range []string{"key-0", "key-1", "no-such-key"} {
		resp, err := http.Get(srv.URL + "/data/" + key)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}

	// Strong traffic through the CP tier, so the consensus families have
	// observations: a linearizable write then a leader-local read.
	resp, err := http.Post(srv.URL+"/data/strong-key?consistency=strong",
		"application/octet-stream", strings.NewReader("strong-value"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("strong POST: status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/data/strong-key?consistency=strong")
	if err != nil {
		t.Fatal(err)
	}
	val, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(val) != "strong-value" {
		t.Fatalf("strong GET: status %d, body %q", resp.StatusCode, val)
	}
	if resp.Header.Get("X-Cache") != "bypass" {
		t.Errorf("strong GET X-Cache = %q, want bypass", resp.Header.Get("X-Cache"))
	}

	// /metrics must export every required family.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	page := string(body)
	required := []string{
		// gateway
		"mystore_gateway_requests_total",
		"mystore_gateway_request_seconds",
		// dispatch
		"mystore_dispatch_dispatched_total",
		"mystore_dispatch_queue_wait_seconds",
		// cache
		"mystore_cache_hits_total",
		"mystore_cache_misses_total",
		// wal
		"mystore_wal_appends_total",
		"mystore_wal_fsyncs_total",
		"mystore_wal_fsync_seconds",
		"mystore_wal_batch_records",
		"mystore_wal_replay_ops_total",
		"mystore_wal_segments_prepared_total",
		"mystore_wal_segments_reused_total",
		"mystore_wal_cold_appends_total",
		// lsm storage engine
		"mystore_lsm_memtable_bytes",
		"mystore_lsm_flushes_total",
		"mystore_lsm_sstables",
		"mystore_lsm_sstables_level",
		"mystore_lsm_compaction_read_bytes_total",
		"mystore_lsm_compaction_written_bytes_total",
		"mystore_lsm_block_cache_hits_total",
		"mystore_lsm_block_cache_misses_total",
		"mystore_lsm_bloom_negatives_total",
		// nwr
		"mystore_nwr_puts_total",
		"mystore_nwr_put_seconds",
		"mystore_hints_queued",
		// store + gossip
		"mystore_store_documents",
		"mystore_gossip_live_peers",
		// repair (Merkle anti-entropy + streamed transfer)
		"mystore_ae_rounds_total",
		"mystore_ae_digest_bytes_total",
		"mystore_ae_version_regressions_total",
		"mystore_stream_bytes_total",
		"mystore_stream_throttle_wait_seconds_total",
		// resilience
		"mystore_breaker_open",
		// transport
		"mystore_rpc_seconds",
		"mystore_transport_deadline_dropped_total",
		// consensus (CP tier)
		"mystore_consensus_ranges_led",
		"mystore_consensus_elections_total",
		"mystore_consensus_elections_won_total",
		"mystore_consensus_proposals_total",
		"mystore_consensus_commits_total",
		"mystore_consensus_applies_total",
		"mystore_consensus_strong_reads_total",
		"mystore_consensus_propose_seconds",
		"mystore_consensus_apply_lag",
		"mystore_consensus_log_entries",
		"mystore_consensus_wal_appends_total",
		"mystore_consensus_wal_fsyncs_total",
		"mystore_consensus_wal_segments_prepared_total",
		"mystore_consensus_wal_segments_reused_total",
		"mystore_consensus_wal_cold_appends_total",
	}
	for _, fam := range required {
		if !strings.Contains(page, "# TYPE "+fam+" ") {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	// Observations actually flowed: the WAL appended and the gateway
	// histogram counted every request.
	if !strings.Contains(page, "mystore_gateway_request_seconds_count 10") {
		t.Errorf("request histogram did not count 10 requests:\n%s", grepLines(page, "mystore_gateway_request_seconds_count"))
	}
	if strings.Contains(page, "mystore_cache_hits_total") && !strings.Contains(page, `mystore_cache_hits_total{server=`) {
		t.Error("cache hits not labeled by server")
	}

	// /stats keeps its historical keys and folds in the registry snapshot.
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"requests", "cacheHits", "workers", "completed", "mystore_wal_appends_total"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/stats missing key %q", key)
		}
	}

	// /debug/traces serves the traffic's traces.
	resp, err = http.Get(srv.URL + "/debug/traces?n=5")
	if err != nil {
		t.Fatal(err)
	}
	var traces []map[string]any
	err = json.NewDecoder(resp.Body).Decode(&traces)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Error("/debug/traces returned no traces after traffic")
	}
}

// grepLines returns the lines of page containing substr (test diagnostics).
func grepLines(page, substr string) string {
	var out []string
	for _, line := range strings.Split(page, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
