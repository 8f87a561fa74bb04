package mystore_test

// One testing.B benchmark per table/figure of the paper's evaluation
// (§6), plus the design-choice ablations. Each benchmark drives the same
// experiment code cmd/mystore-bench runs at full scale, shrunk to Quick
// scale so `go test -bench=.` terminates in minutes; custom metrics carry
// the figure's headline numbers (MB/s, req/s, hits/s...) into the bench
// output.
//
// Regenerate the full-scale tables with:
//
//	go run ./cmd/mystore-bench all

import (
	"context"
	"fmt"
	"testing"

	"mystore"
	"mystore/internal/experiments"
)

func BenchmarkFig11_ThreeSystemThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig11(experiments.Quick(), b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.MBPerSec, row.System+"_MB/s")
			b.ReportMetric(row.RPS, row.System+"_req/s")
		}
	}
}

func BenchmarkFig12_TTFBTTLBByResourceType(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig12(experiments.Quick(), b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.MeanTTLBms, row.System+"_"+row.Class+"_TTLBms")
		}
	}
}

func BenchmarkFig13_TTFBvsProcesses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.MeanTTFBms, fmt.Sprintf("p%d_TTFBms", row.Processes))
		}
	}
}

func BenchmarkFig14_ThroughputVsProcesses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.RPS, fmt.Sprintf("p%d_req/s", row.Processes))
		}
	}
}

func BenchmarkFig15_ReplicaBalance(b *testing.B) {
	scale := experiments.Quick()
	scale.PutItems = 1000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig15(scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpreadPct, "spread_%")
		b.ReportMetric(float64(res.Total), "replicas")
	}
}

func BenchmarkFig16_PutRateFaultVsNoFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig16(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.NoFaultMeanHits, "nofault_hits/s")
		b.ReportMetric(res.FaultMeanHits, "fault_hits/s")
	}
}

func BenchmarkFig17_PutLatencyDistribution(b *testing.B) {
	scale := experiments.Quick()
	scale.PutItems = 200
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig17(scale)
		if err != nil {
			b.Fatal(err)
		}
		mid := len(experiments.Fig17Thresholds) / 2
		b.ReportMetric(float64(res.MyStoreNoFault[mid]), "nofault_mid")
		b.ReportMetric(float64(res.MyStoreFault[mid]), "fault_mid")
		b.ReportMetric(float64(res.MasterSlave[mid]), "masterslave_mid")
	}
}

func BenchmarkContext_LoadAndReadScalars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunContext(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LoadMBPerSec, "load_MB/s")
		b.ReportMetric(res.ReadMBPerSec, "read_MB/s")
	}
}

func BenchmarkAblation_All(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblations(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.VNodes.ConsistentMovePct, "consistent_move_%")
		b.ReportMetric(res.VNodes.ModNMovePct, "modN_move_%")
		b.ReportMetric(res.Hints.WithHintsPct, "hints_ok_%")
		b.ReportMetric(res.Hints.WithoutHintsPct, "nohints_ok_%")
	}
}

// Micro-benchmarks of the public API hot paths.

func benchCluster(b *testing.B) (*mystore.Cluster, *mystore.Client) {
	b.Helper()
	cl, err := mystore.StartCluster(mystore.ClusterOptions{Nodes: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	client, err := cl.Client()
	if err != nil {
		b.Fatal(err)
	}
	return cl, client
}

func BenchmarkClusterPut4KB(b *testing.B) {
	_, client := benchCluster(b)
	payload := make([]byte, 4<<10)
	ctx := context.Background()
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Put(ctx, fmt.Sprintf("bench-%d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterGet4KB(b *testing.B) {
	_, client := benchCluster(b)
	payload := make([]byte, 4<<10)
	ctx := context.Background()
	const keys = 512
	for i := 0; i < keys; i++ {
		if err := client.Put(ctx, fmt.Sprintf("bench-%d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Get(ctx, fmt.Sprintf("bench-%d", i%keys)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterQueryRegex(b *testing.B) {
	_, client := benchCluster(b)
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if err := client.PutDoc(ctx, fmt.Sprintf("doc-%03d", i), mystore.Document{
			{Key: "n", Value: int64(i)},
		}); err != nil {
			b.Fatal(err)
		}
	}
	filter := mystore.Filter{{Key: "self-key", Value: mystore.Document{{Key: "$regex", Value: "^doc-00"}}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query(ctx, filter, mystore.FindOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
