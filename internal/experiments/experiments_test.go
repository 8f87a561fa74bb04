package experiments

import (
	"strings"
	"testing"
)

// The experiment smoke tests run every figure at Quick scale and assert
// the qualitative shapes the paper reports, not absolute numbers.

// skipShapeUnderRace skips timing-sensitive cross-system comparisons when
// the race detector's slowdown would distort them.
func skipShapeUnderRace(t *testing.T) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("timing-shape assertions are unreliable under -race")
	}
}

func TestFig11Shape(t *testing.T) {
	skipShapeUnderRace(t)
	res, err := RunFig11(Quick(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Fig11Row{}
	for _, r := range res.Rows {
		byName[r.System] = r
		if r.RPS <= 0 || r.MBPerSec <= 0 {
			t.Fatalf("%s reported no throughput: %+v", r.System, r)
		}
	}
	// The paper's shape: MyStore (cache + 5 partitions) beats both
	// baselines on read throughput.
	my, fs, sql := byName["MyStore"], byName["ext3-FS"], byName["MySQL-MS"]
	if my.MBPerSec <= fs.MBPerSec || my.MBPerSec <= sql.MBPerSec {
		t.Errorf("MyStore should lead on MB/s: my=%.1f fs=%.1f sql=%.1f",
			my.MBPerSec, fs.MBPerSec, sql.MBPerSec)
	}
	if s := res.String(); !strings.Contains(s, "MyStore") {
		t.Error("String() missing system name")
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := RunFig12(Quick(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Within each system, larger resource classes must cost more TTLB.
	perSystem := map[string]map[string]Fig12Row{}
	for _, r := range res.Rows {
		if perSystem[r.System] == nil {
			perSystem[r.System] = map[string]Fig12Row{}
		}
		perSystem[r.System][r.Class] = r
		if r.MeanTTFBms > r.MeanTTLBms {
			t.Errorf("%s/%s: TTFB %.2f > TTLB %.2f", r.System, r.Class, r.MeanTTFBms, r.MeanTTLBms)
		}
	}
	for name, rows := range perSystem {
		a, okA := rows["a"]
		c, okC := rows["c"]
		if okA && okC && c.MeanTTLBms <= a.MeanTTLBms {
			t.Errorf("%s: class c TTLB %.2fms should exceed class a %.2fms", name, c.MeanTTLBms, a.MeanTTLBms)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	skipShapeUnderRace(t)
	res, err := RunFig13(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// RPS must grow from the first to the last sweep point (more offered
	// load) — the paper's pre-saturation region.
	if res.Rows[len(res.Rows)-1].RPS <= res.Rows[0].RPS {
		t.Errorf("RPS did not grow across the sweep: %+v", res.Rows)
	}
	if s := res.String(); !strings.Contains(s, "processes") {
		t.Error("String() malformed")
	}
}

func TestFig15Balance(t *testing.T) {
	scale := Quick()
	scale.PutItems = 1000
	res, err := RunFig15(scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 3000 {
		t.Fatalf("total replicas = %d, want 3000", res.Total)
	}
	if len(res.PerNode) != 5 {
		t.Fatalf("nodes = %d", len(res.PerNode))
	}
	for i, n := range res.PerNode {
		if n == 0 {
			t.Errorf("node %d holds nothing", i)
		}
	}
	if res.SpreadPct > 60 {
		t.Errorf("spread = %.1f%%, want reasonably balanced", res.SpreadPct)
	}
}

func TestFig16FaultArmSlower(t *testing.T) {
	res, err := RunFig16(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.NoFaultMeanHits <= 0 || res.FaultMeanHits <= 0 {
		t.Fatalf("empty series: %+v", res)
	}
	// At Quick scale a short run may not include a breakdown, so allow the
	// arms to tie within noise; the fault arm must never lead decisively.
	if res.FaultMeanHits > res.NoFaultMeanHits*1.15 {
		t.Errorf("fault arm (%.1f hits/s) should not lead no-fault (%.1f)",
			res.FaultMeanHits, res.NoFaultMeanHits)
	}
	if s := res.String(); !strings.Contains(s, "no-fault") {
		t.Error("String() malformed")
	}
}

func TestFig17Ordering(t *testing.T) {
	scale := Quick()
	scale.PutItems = 200
	res, err := RunFig17(scale)
	if err != nil {
		t.Fatal(err)
	}
	n := len(Fig17Thresholds)
	if len(res.MyStoreNoFault) != n || len(res.MyStoreFault) != n || len(res.MasterSlave) != n {
		t.Fatalf("series lengths wrong")
	}
	// Monotone cumulative counts.
	for i := 1; i < n; i++ {
		if res.MyStoreNoFault[i] < res.MyStoreNoFault[i-1] {
			t.Fatal("no-fault series not monotone")
		}
	}
	// The paper's ordering at mid thresholds: no-fault >= fault >= m/s.
	mid := n / 2
	if res.MyStoreNoFault[mid] < res.MyStoreFault[mid] {
		t.Errorf("at %v: no-fault %d < fault %d", Fig17Thresholds[mid],
			res.MyStoreNoFault[mid], res.MyStoreFault[mid])
	}
	if s := res.String(); !strings.Contains(s, "MyStore") {
		t.Error("String() malformed")
	}
}

func TestContextScalars(t *testing.T) {
	res, err := RunContext(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadMBPerSec <= 0 || res.ReadMBPerSec <= 0 || res.ReadRPS <= 0 {
		t.Fatalf("scalars missing: %+v", res)
	}
}

func TestSoakNoViolations(t *testing.T) {
	res, err := RunSoak(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("soak did nothing")
	}
	if res.Violations != 0 {
		t.Fatalf("soak found %d invariant violations", res.Violations)
	}
}

func TestChaosNoViolations(t *testing.T) {
	res, err := RunChaos(Quick(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.AckedPuts == 0 {
		t.Fatal("chaos acked no writes")
	}
	if res.StrongAckedPuts == 0 {
		t.Fatal("chaos acked no strong writes: invariant 7 was not exercised")
	}
	if res.CrashRestarts < 2 || res.Partitions < 1 {
		t.Fatalf("schedule incomplete: %d crash-restarts, %d partitions", res.CrashRestarts, res.Partitions)
	}
	if v := res.Violations(); v != 0 {
		t.Fatalf("chaos found %d invariant violations:\n%s", v, res.String())
	}
}

func TestAblations(t *testing.T) {
	scale := Quick()
	scale.ReadItems = 1000 // 100 ops per NWR config: enough for stable means
	res, err := RunAblations(scale)
	if err != nil {
		t.Fatal(err)
	}
	// A1: more vnodes, better balance.
	if res.VNodes.SpreadByVNodes[1] <= res.VNodes.SpreadByVNodes[200] {
		t.Errorf("vnodes did not improve balance: %v", res.VNodes.SpreadByVNodes)
	}
	if res.VNodes.ModNMovePct <= res.VNodes.ConsistentMovePct {
		t.Errorf("mod-N (%.1f%%) should remap more than consistent hashing (%.1f%%)",
			res.VNodes.ModNMovePct, res.VNodes.ConsistentMovePct)
	}
	// A2: W=3 writes slower than W=1; W=3 unavailable with a node down.
	byCfg := map[string]NWRAblationRow{}
	for _, r := range res.NWR {
		byCfg[r.Config] = r
	}
	if byCfg["(3,3,1)"].PutMeanMs <= byCfg["(3,1,1)"].PutMeanMs {
		t.Errorf("W=3 puts (%.2fms) should cost more than W=1 (%.2fms)",
			byCfg["(3,3,1)"].PutMeanMs, byCfg["(3,1,1)"].PutMeanMs)
	}
	if byCfg["(3,3,1)"].DownSuccessPct >= 90 {
		t.Errorf("W=3 with a node down and no hints should lose writes, got %.0f%% ok",
			byCfg["(3,3,1)"].DownSuccessPct)
	}
	if byCfg["(3,1,1)"].DownSuccessPct < 99 {
		t.Errorf("W=1 should stay available, got %.0f%% ok", byCfg["(3,1,1)"].DownSuccessPct)
	}
	// A3: hints rescue writes.
	if res.Hints.WithHintsPct < res.Hints.WithoutHintsPct {
		t.Errorf("hints (%.1f%%) should not trail no-hints (%.1f%%)",
			res.Hints.WithHintsPct, res.Hints.WithoutHintsPct)
	}
	// A4: the cache tier serves hot reads faster than the cluster alone.
	if res.Cache.HitRatePct <= 0 {
		t.Errorf("cache tier never hit: %+v", res.Cache)
	}
	if res.Cache.WithCacheMeanMs >= res.Cache.WithoutCacheMeanMs {
		t.Errorf("mean TTLB with cache %.2fms should beat without %.2fms",
			res.Cache.WithCacheMeanMs, res.Cache.WithoutCacheMeanMs)
	}
	// A5: push-pull converges at least as fast as push-only.
	if res.Gossip.PushPullRounds > res.Gossip.PushOnlyRounds {
		t.Errorf("push-pull (%d rounds) slower than push-only (%d)",
			res.Gossip.PushPullRounds, res.Gossip.PushOnlyRounds)
	}
	if s := res.String(); !strings.Contains(s, "A1") {
		t.Error("String() malformed")
	}
}
