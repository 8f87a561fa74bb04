package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"mystore/internal/bson"
	"mystore/internal/docstore"
	"mystore/internal/lsm"
	"mystore/internal/metrics"
	"mystore/internal/wal"
)

// --- A10: storage engine (map vs lsm) ---
//
// Three claims are measured against a single document store, one per phase:
//
//  1. Restart. The map engine replays its full WAL history on open (absent
//     an explicit snapshot); the lsm engine checkpoints the WAL on every
//     memtable flush, so open replays only the unflushed tail. Both engines
//     apply the same op history, close, and reopen under a timer.
//  2. Memory. The map engine keeps every decoded document resident; the lsm
//     engine keeps the memtable plus a block cache. A dataset ~10x the
//     memtable budget is loaded into each and the post-GC heap growth
//     compared, then the lsm store is reopened cold and random gets are
//     timed cold (cache empty) and warm.
//  3. Foreground interference. With a compaction backlog accumulated and
//     background compaction rate-limited by the token bucket, random-get
//     p99 is measured with compaction paused and again with it running
//     (plus a concurrent writer keeping flushes coming). The bucket should
//     keep the two within shouting distance.

// StorageRestartRow measures one engine's reopen cost.
type StorageRestartRow struct {
	Engine      string
	Ops         int
	ReplayedOps uint64
	OpenMs      float64
}

// StorageMemory compares resident heap for a dataset ~10x the lsm
// memtable budget, plus lsm read latency cold and warm.
type StorageMemory struct {
	Docs           int
	DatasetBytes   int64
	MemtableBudget int64
	MapHeapBytes   int64
	LsmHeapBytes   int64
	ColdP99ms      float64
	WarmP99ms      float64
	CacheHits      int64
	CacheMisses    int64
	BloomNegatives int64
}

// StorageForeground measures read p99 against an idle vs an actively
// compacting engine.
type StorageForeground struct {
	Reads           int
	BandwidthBps    int64
	IdleP99ms       float64
	CompactingP99ms float64
	Compactions     int64
	CompactBytes    int64
	ThrottleWaitMs  float64
}

// StorageAblation is the A10 study.
type StorageAblation struct {
	Restart    []StorageRestartRow
	Memory     StorageMemory
	Foreground StorageForeground
}

// String renders the study.
func (a StorageAblation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A10 — storage engine: map (seed) vs lsm\n")
	fmt.Fprintf(&b, "  restart after %d-op history (clean close, no explicit snapshot):\n", restartOps(a))
	for _, row := range a.Restart {
		fmt.Fprintf(&b, "    %-4s  replayed %6d ops, open %8.1fms\n", row.Engine, row.ReplayedOps, row.OpenMs)
	}
	if s := a.restartSpeedup(); s > 0 {
		fmt.Fprintf(&b, "    checkpointed restart speedup (map/lsm): %.1fx\n", s)
	}
	m := a.Memory
	fmt.Fprintf(&b, "  memory, %d docs (%.1f MiB ≈ %.0fx the %d KiB memtable):\n",
		m.Docs, float64(m.DatasetBytes)/(1<<20),
		ratioOr1(float64(m.DatasetBytes), float64(m.MemtableBudget)), m.MemtableBudget>>10)
	fmt.Fprintf(&b, "    heap growth: map %.1f MiB, lsm %.1f MiB (%.1fx less)\n",
		float64(m.MapHeapBytes)/(1<<20), float64(m.LsmHeapBytes)/(1<<20),
		ratioOr1(float64(m.MapHeapBytes), float64(m.LsmHeapBytes)))
	fmt.Fprintf(&b, "    lsm random get p99: %.2fms cold, %.2fms warm (cache %d hits / %d misses, %d bloom negatives)\n",
		m.ColdP99ms, m.WarmP99ms, m.CacheHits, m.CacheMisses, m.BloomNegatives)
	f := a.Foreground
	fmt.Fprintf(&b, "  foreground under %dKB/s-throttled compaction: %d reads, p99 %.2fms idle vs %.2fms compacting",
		f.BandwidthBps/1024, f.Reads, f.IdleP99ms, f.CompactingP99ms)
	if f.IdleP99ms > 0 {
		fmt.Fprintf(&b, " (+%.0f%%)", 100*(f.CompactingP99ms-f.IdleP99ms)/f.IdleP99ms)
	}
	fmt.Fprintf(&b, "\n    %d compactions moved %.1f MiB, throttle stalled %.0fms\n",
		f.Compactions, float64(f.CompactBytes)/(1<<20), f.ThrottleWaitMs)
	return b.String()
}

func ratioOr1(num, den float64) float64 {
	if den <= 0 {
		return 1
	}
	return num / den
}

func restartOps(a StorageAblation) int {
	if len(a.Restart) > 0 {
		return a.Restart[0].Ops
	}
	return 0
}

func (a StorageAblation) restartSpeedup() float64 {
	var mapMs, lsmMs float64
	for _, row := range a.Restart {
		switch row.Engine {
		case "map":
			mapMs = row.OpenMs
		case "lsm":
			lsmMs = row.OpenMs
		}
	}
	if mapMs <= 0 || lsmMs <= 0 {
		return 0
	}
	return mapMs / lsmMs
}

// storageDoc builds one workload document: a fixed-size opaque value under a
// sequential key.
func storageDoc(i, valBytes int) bson.D {
	return bson.D{
		{Key: "_id", Value: fmt.Sprintf("doc-%07d", i)},
		{Key: "val", Value: make([]byte, valBytes)},
	}
}

// applyHistory writes an op history: inserts with a 25% chance of instead
// updating an already-written key, so the history exercises overwrites too.
func applyHistory(s *docstore.Store, ops, valBytes int, seed int64) error {
	c := s.C("records")
	rng := rand.New(rand.NewSource(seed))
	written := 0
	for i := 0; i < ops; i++ {
		if written > 0 && rng.Intn(4) == 0 {
			doc := storageDoc(rng.Intn(written), valBytes)
			if err := c.Update(doc); err != nil {
				return err
			}
			continue
		}
		if _, err := c.Insert(storageDoc(written, valBytes)); err != nil {
			return err
		}
		written++
	}
	return nil
}

// smallStorage is the lsm tuning the ablation runs under: budgets small
// enough that laptop-scale histories still flush, checkpoint and compact.
func smallStorage() lsm.Tuning {
	return lsm.Tuning{
		MemtableBytes:    256 << 10,
		BlockBytes:       4 << 10,
		BlockCacheBytes:  256 << 10,
		L0CompactTrigger: 4,
		LevelBaseBytes:   1 << 20,
		TargetFileBytes:  512 << 10,
	}
}

func storageOpts(dir, engine string) docstore.Options {
	return docstore.Options{
		Dir:     dir,
		WAL:     wal.Options{SegmentSize: 1 << 20},
		Engine:  engine,
		Storage: smallStorage(),
	}
}

// runStorageRestart measures one engine's reopen after an op history.
func runStorageRestart(dir, engine string, ops int, seed int64) (StorageRestartRow, error) {
	row := StorageRestartRow{Engine: engine, Ops: ops}
	s, err := docstore.Open(storageOpts(dir, engine))
	if err != nil {
		return row, err
	}
	if err := applyHistory(s, ops, 64, seed); err != nil {
		s.Close()
		return row, err
	}
	if err := s.Close(); err != nil {
		return row, err
	}

	t0 := time.Now()
	s2, err := docstore.Open(storageOpts(dir, engine))
	if err != nil {
		return row, err
	}
	row.OpenMs = float64(time.Since(t0)) / 1e6
	row.ReplayedOps = s2.ReplayedOps()
	// Sanity: the reopened store serves the history.
	if n := s2.C("records").Len(); n == 0 {
		s2.Close()
		return row, fmt.Errorf("storage %s: reopened store is empty", engine)
	}
	return row, s2.Close()
}

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
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

// runStorageMemory loads a dataset ~10x the lsm memtable budget into each
// engine and compares post-GC heap growth, then reopens the lsm store and
// times random gets cold and warm.
func runStorageMemory(mapDir, lsmDir string, seed int64) (StorageMemory, error) {
	tun := smallStorage()
	const valBytes = 512
	docs := int(10 * tun.MemtableBytes / (valBytes + 48))
	m := StorageMemory{Docs: docs, MemtableBudget: tun.MemtableBytes}

	load := func(dir, engine string) (*docstore.Store, error) {
		s, err := docstore.Open(storageOpts(dir, engine))
		if err != nil {
			return nil, err
		}
		c := s.C("records")
		for i := 0; i < docs; i++ {
			doc := storageDoc(i, valBytes)
			enc, _ := bson.Marshal(doc)
			m.DatasetBytes += int64(len(enc))
			if _, err := c.Insert(doc); err != nil {
				s.Close()
				return nil, err
			}
		}
		return s, nil
	}

	m.DatasetBytes = 0
	base := heapAfterGC()
	ms, err := load(mapDir, "map")
	if err != nil {
		return m, err
	}
	m.MapHeapBytes = heapAfterGC() - base
	mapDataset := m.DatasetBytes
	if err := ms.Close(); err != nil {
		return m, err
	}

	m.DatasetBytes = 0
	base = heapAfterGC()
	ls, err := load(lsmDir, "lsm")
	if err != nil {
		return m, err
	}
	if err := ls.Compact(); err != nil { // flush: tables on disk, memtable empty
		ls.Close()
		return m, err
	}
	if err := ls.Engine().CompactNow(); err != nil {
		ls.Close()
		return m, err
	}
	m.LsmHeapBytes = heapAfterGC() - base
	m.DatasetBytes = mapDataset
	if err := ls.Close(); err != nil {
		return m, err
	}

	// Cold reopen: block cache empty, every get pages table blocks in.
	ls, err = docstore.Open(storageOpts(lsmDir, "lsm"))
	if err != nil {
		return m, err
	}
	defer ls.Close()
	reads := docs
	if reads > 4000 {
		reads = 4000
	}
	m.ColdP99ms = measureGetP99(ls, docs, reads, 8, seed)
	m.WarmP99ms = measureGetP99(ls, docs, reads, 8, seed) // same key stream
	st := ls.Engine().Stats()
	m.CacheHits = st.BlockCacheHits
	m.CacheMisses = st.BlockCacheMisses
	m.BloomNegatives = st.BloomNegatives
	return m, nil
}

// runStorageForeground builds a compaction backlog with compaction paused,
// measures read p99 against the idle engine, then resumes the rate-limited
// compactor (with a writer keeping flushes coming) and measures again.
func runStorageForeground(dir string, reads int, seed int64) (StorageForeground, error) {
	fg := StorageForeground{Reads: reads, BandwidthBps: 8 << 20}
	tun := smallStorage()
	tun.MemtableBytes = 128 << 10
	tun.CompactionBandwidth = fg.BandwidthBps
	opts := storageOpts(dir, "lsm")
	opts.Storage = tun
	s, err := docstore.Open(opts)
	if err != nil {
		return fg, err
	}
	defer s.Close()
	eng := s.Engine()
	eng.PauseCompaction(true)

	const valBytes = 512
	docs := int(20 * tun.MemtableBytes / (valBytes + 48))
	c := s.C("records")
	for i := 0; i < docs; i++ {
		if _, err := c.Insert(storageDoc(i, valBytes)); err != nil {
			return fg, err
		}
	}
	if err := s.Compact(); err != nil { // drain the flush queue; L0 is piled up
		return fg, err
	}

	fg.IdleP99ms = measureGetP99(s, docs, reads, 8, seed)

	// Resume compaction against the accumulated backlog and keep a writer
	// running so flushes keep feeding it while reads are measured.
	before := eng.Stats()
	eng.PauseCompaction(false)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(seed * 17))
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
	fg.CompactingP99ms = measureGetP99(s, docs, reads, 8, seed+1)
	close(stop)
	writer.Wait()
	if err := eng.CompactNow(); err != nil {
		return fg, err
	}
	after := eng.Stats()
	fg.Compactions = after.Compactions - before.Compactions
	fg.CompactBytes = after.CompactBytesOut - before.CompactBytesOut
	fg.ThrottleWaitMs = float64(after.ThrottleWaitNanos-before.ThrottleWaitNanos) / 1e6
	return fg, nil
}

// RunStorageAblation runs the A10 study. dir hosts the stores.
func RunStorageAblation(scale Scale, dir string) (StorageAblation, error) {
	scale = scale.withDefaults()
	a := StorageAblation{}

	ops := scale.PutItems * 10 // default 100k-op history
	for _, engine := range []string{"map", "lsm"} {
		row, err := runStorageRestart(fmt.Sprintf("%s/restart-%s", dir, engine), engine, ops, scale.Seed)
		if err != nil {
			return a, fmt.Errorf("storage restart (%s): %w", engine, err)
		}
		a.Restart = append(a.Restart, row)
	}

	var err error
	a.Memory, err = runStorageMemory(dir+"/mem-map", dir+"/mem-lsm", scale.Seed)
	if err != nil {
		return a, fmt.Errorf("storage memory: %w", err)
	}

	a.Foreground, err = runStorageForeground(dir+"/fg", scale.PutItems*2, scale.Seed)
	if err != nil {
		return a, fmt.Errorf("storage foreground: %w", err)
	}
	return a, nil
}
