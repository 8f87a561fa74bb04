package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"mystore/internal/bson"
	"mystore/internal/docstore"
	"mystore/internal/lsm"
	"mystore/internal/metrics"
	"mystore/internal/wal"
)

// --- A10: foreground reads under rate-limited compaction ---
//
// With a compaction backlog accumulated and background compaction
// rate-limited by the token bucket, random-get p99 is measured with
// compaction paused and again with it running (plus a concurrent writer
// keeping flushes coming). The bucket should keep the two within shouting
// distance.

// StorageAblation is the A10 study: read p99 against an idle vs an actively
// compacting engine.
type StorageAblation struct {
	Reads           int
	BandwidthBps    int64
	IdleP99ms       float64
	CompactingP99ms float64
	Compactions     int64
	CompactBytes    int64
	ThrottleWaitMs  float64
}

// String renders the study.
func (a StorageAblation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A10 — foreground under %dKB/s-throttled compaction: %d reads, p99 %.2fms idle vs %.2fms compacting",
		a.BandwidthBps/1024, a.Reads, a.IdleP99ms, a.CompactingP99ms)
	if a.IdleP99ms > 0 {
		fmt.Fprintf(&b, " (+%.0f%%)", 100*(a.CompactingP99ms-a.IdleP99ms)/a.IdleP99ms)
	}
	fmt.Fprintf(&b, "\n    %d compactions moved %.1f MiB, throttle stalled %.0fms\n",
		a.Compactions, float64(a.CompactBytes)/(1<<20), a.ThrottleWaitMs)
	return b.String()
}

// storageDoc builds one workload document: a fixed-size opaque value under a
// sequential key.
func storageDoc(i, valBytes int) bson.D {
	return bson.D{
		{Key: "_id", Value: fmt.Sprintf("doc-%07d", i)},
		{Key: "val", Value: make([]byte, valBytes)},
	}
}

// measureGetP99 times random gets over [0, docs) with `readers` concurrent
// goroutines and returns the p99 in milliseconds.
func measureGetP99(s *docstore.Store, docs, reads, readers int, seed int64) float64 {
	hist := metrics.NewHistogramCap(reads)
	perReader := reads / readers
	if perReader < 1 {
		perReader = 1
	}
	c := s.C("records")
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(r)*15485863))
			for i := 0; i < perReader; i++ {
				key := fmt.Sprintf("doc-%07d", rng.Intn(docs))
				t0 := time.Now()
				if _, ok := c.Get(key); ok {
					hist.Observe(time.Since(t0))
				}
			}
		}(r)
	}
	wg.Wait()
	return float64(hist.Quantile(0.99)) / 1e6
}

// RunStorageAblation runs the A10 study in dir: it builds a compaction
// backlog with compaction paused, measures read p99 against the idle engine,
// then resumes the rate-limited compactor (with a writer keeping flushes
// coming) and measures again.
func RunStorageAblation(scale Scale, dir string) (StorageAblation, error) {
	scale = scale.withDefaults()
	reads := scale.PutItems * 2
	a := StorageAblation{Reads: reads, BandwidthBps: 8 << 20}
	// Budgets small enough that laptop-scale data still flushes and compacts.
	tun := lsm.Tuning{
		MemtableBytes:       128 << 10,
		BlockBytes:          4 << 10,
		BlockCacheBytes:     256 << 10,
		L0CompactTrigger:    4,
		LevelBaseBytes:      1 << 20,
		TargetFileBytes:     512 << 10,
		CompactionBandwidth: a.BandwidthBps,
	}
	s, err := docstore.Open(docstore.Options{Dir: dir, WAL: wal.Options{SegmentSize: 1 << 20}, Storage: tun})
	if err != nil {
		return a, err
	}
	defer s.Close()
	eng := s.Engine()
	eng.PauseCompaction(true)

	const valBytes = 512
	docs := int(20 * tun.MemtableBytes / (valBytes + 48))
	c := s.C("records")
	for i := 0; i < docs; i++ {
		if _, err := c.Insert(storageDoc(i, valBytes)); err != nil {
			return a, err
		}
	}
	if err := s.Compact(); err != nil { // drain the flush queue; L0 is piled up
		return a, err
	}

	a.IdleP99ms = measureGetP99(s, docs, reads, 8, scale.Seed)

	// Resume compaction against the accumulated backlog and keep a writer
	// running so flushes keep feeding it while reads are measured.
	before := eng.Stats()
	eng.PauseCompaction(false)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(scale.Seed * 17))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			doc := storageDoc(rng.Intn(docs), valBytes)
			if err := c.Update(doc); err != nil {
				return
			}
			if i%64 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	a.CompactingP99ms = measureGetP99(s, docs, reads, 8, scale.Seed+1)
	close(stop)
	writer.Wait()
	if err := eng.CompactNow(); err != nil {
		return a, err
	}
	after := eng.Stats()
	a.Compactions = after.Compactions - before.Compactions
	a.CompactBytes = after.CompactBytesOut - before.CompactBytesOut
	a.ThrottleWaitMs = float64(after.ThrottleWaitNanos-before.ThrottleWaitNanos) / 1e6
	return a, nil
}
