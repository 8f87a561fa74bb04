package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestBloomFilter(t *testing.T) {
	var hashes []uint64
	for i := 0; i < 1000; i++ {
		hashes = append(hashes, bloomHash([]byte(fmt.Sprintf("key-%04d", i))))
	}
	f := parseBloom(buildBloom(hashes, DefaultBloomBitsPerKey))
	for i := 0; i < 1000; i++ {
		if !f.mayContain([]byte(fmt.Sprintf("key-%04d", i))) {
			t.Fatalf("false negative for key-%04d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if f.mayContain([]byte(fmt.Sprintf("other-%05d", i))) {
			fp++
		}
	}
	// 10 bits/key targets ~1% false positives; 5% is far past broken.
	if fp > 500 {
		t.Fatalf("false positive rate too high: %d/10000", fp)
	}
}

func TestBloomEmpty(t *testing.T) {
	f := parseBloom(buildBloom(nil, DefaultBloomBitsPerKey))
	if f.mayContain([]byte("anything")) {
		t.Fatal("empty filter claims membership")
	}
}

func writeTestTable(t *testing.T, dir string, num uint64, n int) *table {
	t.Helper()
	tw, err := newTableWriter(dir, num, 256, DefaultBloomBitsPerKey)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		if i%7 == 3 {
			err = tw.add(key, nil, true)
		} else {
			err = tw.add(key, []byte(fmt.Sprintf("value-%06d", i)), false)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	tw.observeLSN(uint64(n))
	tbl, err := tw.finish()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// BenchmarkTableWrite is the flush's layer benchmark: one table of 64 4 KiB
// values (a 256 KiB memtable's worth) through the writer, its fsync, rename
// and directory fsync, and the open that makes it readable.
func BenchmarkTableWrite(b *testing.B) {
	dir := b.TempDir()
	val := bytes.Repeat([]byte("v"), 4<<10)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(keys) * len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw, err := newTableWriter(dir, uint64(i+1), DefaultBlockBytes, DefaultBloomBitsPerKey)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if err := tw.add(k, val, false); err != nil {
				b.Fatal(err)
			}
		}
		tbl, err := tw.finish()
		if err != nil {
			b.Fatal(err)
		}
		tbl.markObsolete()
	}
}

func TestTableRoundtrip(t *testing.T) {
	dir := t.TempDir()
	tbl := writeTestTable(t, dir, 1, 500)
	defer tbl.markObsolete()
	var st engineCounters
	if tbl.count != 500 || tbl.maxLSN != 500 {
		t.Fatalf("props: count=%d maxLSN=%d", tbl.count, tbl.maxLSN)
	}
	if string(tbl.minKey) != "key-000000" || string(tbl.maxKey) != "key-000499" {
		t.Fatalf("key range %q..%q", tbl.minKey, tbl.maxKey)
	}
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		val, tomb, found, err := tbl.get(key, nil, &st)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("missing %s", key)
		}
		if i%7 == 3 {
			if !tomb {
				t.Fatalf("%s should be a tombstone", key)
			}
		} else if tomb || string(val) != fmt.Sprintf("value-%06d", i) {
			t.Fatalf("%s: tomb=%v val=%q", key, tomb, val)
		}
	}
	if _, _, found, _ := tbl.get([]byte("key-000500"), nil, &st); found {
		t.Fatal("found key past the end")
	}
	if _, _, found, _ := tbl.get([]byte("aaa"), nil, &st); found {
		t.Fatal("found key before the start")
	}
	// Full iteration sees every entry in order, tombstones included.
	it := newTableIter(tbl, nil, nil, nil, &st)
	n := 0
	var last []byte
	for it.next() {
		if last != nil && bytes.Compare(it.key(), last) <= 0 {
			t.Fatal("iteration out of order")
		}
		last = append(last[:0], it.key()...)
		n++
	}
	if it.err != nil || n != 500 {
		t.Fatalf("iterated %d entries, err=%v", n, it.err)
	}
	// Bounded iteration respects [lo, hi).
	it = newTableIter(tbl, []byte("key-000100"), []byte("key-000110"), nil, &st)
	n = 0
	for it.next() {
		n++
	}
	if n != 10 {
		t.Fatalf("range scan saw %d entries, want 10", n)
	}
	if err := tbl.scrub(); err != nil {
		t.Fatalf("scrub: %v", err)
	}
}

func TestTableCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	tbl := writeTestTable(t, dir, 1, 300)
	path := tbl.path
	tbl.markObsolete() // close; file removed
	tbl = writeTestTable(t, dir, 2, 300)
	path = tbl.path
	tbl.f.Close()

	flip := func(off int64) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if off < 0 {
			off += int64(len(raw))
		}
		raw[off] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a byte in the first data block: open succeeds (meta is intact)
	// but reading or scrubbing the block must fail.
	flip(10)
	tbl2, err := openTable(dir, 2)
	if err != nil {
		t.Fatalf("open with torn data block should defer the error to reads: %v", err)
	}
	var st engineCounters
	if err := tbl2.scrub(); err == nil {
		t.Fatal("scrub missed a corrupt block")
	}
	if _, err := tbl2.block(0, nil, &st); err == nil {
		t.Fatal("block read missed corruption")
	}
	tbl2.f.Close()
	flip(10) // restore
	// Flip the footer: open must fail outright.
	flip(-9)
	if _, err := openTable(dir, 2); err == nil {
		t.Fatal("open accepted a corrupt footer")
	}
	flip(-9)
	// Truncate mid-file (torn write): open must fail.
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openTable(dir, 2); err == nil {
		t.Fatal("open accepted a truncated table")
	}
}

func testEngine(t *testing.T, tune Tuning) *Engine {
	t.Helper()
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Tuning: tune})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func smallTuning() Tuning {
	return Tuning{
		MemtableBytes:   8 << 10,
		BlockBytes:      512,
		LevelBaseBytes:  16 << 10,
		TargetFileBytes: 8 << 10,
	}
}

func TestEngineBasic(t *testing.T) {
	e := testEngine(t, smallTuning())
	var lsn uint64
	put := func(k, v string) {
		lsn++
		if err := e.Apply([]byte(k), []byte(v), lsn); err != nil {
			t.Fatal(err)
		}
	}
	put("a", "1")
	put("b", "2")
	put("c", "3")
	lsn++
	if err := e.Delete([]byte("b"), lsn); err != nil {
		t.Fatal(err)
	}
	put("a", "1b")

	check := func() {
		t.Helper()
		v, ok, err := e.Get([]byte("a"))
		if err != nil || !ok || string(v) != "1b" {
			t.Fatalf("a: %q %v %v", v, ok, err)
		}
		if _, ok, _ := e.Get([]byte("b")); ok {
			t.Fatal("deleted key b visible")
		}
		var keys []string
		if err := e.Iter(nil, nil, func(k, v []byte) bool {
			keys = append(keys, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if strings.Join(keys, ",") != "a,c" {
			t.Fatalf("scan: %v", keys)
		}
	}
	check()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	check() // same answers from tables
	st := e.Stats()
	if st.Flushes == 0 || st.Tables == 0 {
		t.Fatalf("expected flushed tables: %+v", st)
	}
}

// TestEngineFlushCompactReopen pushes enough data through a tiny engine to
// force flushes and compactions, then reopens and verifies every key.
func TestEngineFlushCompactReopen(t *testing.T) {
	dir := t.TempDir()
	tune := smallTuning()
	e, err := Open(Options{Dir: dir, Tuning: tune})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	want := map[string]string{}
	var lsn uint64
	const keys = 400
	for op := 0; op < 5000; op++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(keys))
		lsn++
		if rng.Intn(10) == 0 {
			delete(want, k)
			if err := e.Delete([]byte(k), lsn); err != nil {
				t.Fatal(err)
			}
		} else {
			v := fmt.Sprintf("val-%d-%d", op, rng.Intn(1000))
			want[k] = v
			if err := e.Apply([]byte(k), []byte(v), lsn); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.CompactNow(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Compactions == 0 {
		t.Fatalf("expected compactions to run: %+v", st)
	}
	if st.CompactBytesIn == 0 || st.CompactBytesOut == 0 {
		t.Fatalf("compaction byte counters empty: %+v", st)
	}
	verify := func(e *Engine) {
		t.Helper()
		for k, v := range want {
			got, ok, err := e.Get([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			if !ok || string(got) != v {
				t.Fatalf("%s: got %q ok=%v want %q", k, got, ok, v)
			}
		}
		n := 0
		if err := e.Iter(nil, nil, func(k, v []byte) bool {
			if want[string(k)] != string(v) {
				t.Fatalf("scan %s: got %q want %q", k, v, want[string(k)])
			}
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("scan saw %d keys, want %d", n, len(want))
		}
	}
	verify(e)
	ckpt := e.CheckpointLSN()
	if ckpt != lsn+1 {
		t.Fatalf("checkpoint %d, want %d (all flushed)", ckpt, lsn+1)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(Options{Dir: dir, Tuning: tune})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.CheckpointLSN() != ckpt {
		t.Fatalf("checkpoint lost across reopen: %d != %d", e.CheckpointLSN(), ckpt)
	}
	verify(e)
}

// TestEngineCheckpointCallback verifies the flush → checkpoint contract the
// docstore relies on for WAL truncation.
func TestEngineCheckpointCallback(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var ckpts []uint64
	e, err := Open(Options{
		Dir:    dir,
		Tuning: smallTuning(),
		Checkpoint: func(lsn uint64) {
			mu.Lock()
			ckpts = append(ckpts, lsn)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 1; i <= 200; i++ {
		if err := e.Apply([]byte(fmt.Sprintf("k%06d", i)), bytes.Repeat([]byte("x"), 100), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ckpts) == 0 {
		t.Fatal("no checkpoint callbacks")
	}
	for i := 1; i < len(ckpts); i++ {
		if ckpts[i] < ckpts[i-1] {
			t.Fatalf("checkpoint went backwards: %v", ckpts)
		}
	}
	if last := ckpts[len(ckpts)-1]; last != 201 {
		t.Fatalf("final checkpoint %d, want 201", last)
	}
}

// TestEngineCrashMidFlushNeverLoadsTornTable simulates kill -9 during a
// flush: the aborted table write leaves a torn temp file, and reopening
// must discard it rather than load it.
func TestEngineCrashMidFlushNeverLoadsTornTable(t *testing.T) {
	dir := t.TempDir()
	tune := smallTuning()
	e, err := Open(Options{Dir: dir, Tuning: tune})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := e.Apply([]byte(fmt.Sprintf("k%06d", i)), bytes.Repeat([]byte("v"), 64), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	e.Crash()

	// Plant a torn temp file and an orphan table the manifest doesn't
	// reference, as an interrupted flush could leave either.
	torn := filepath.Join(dir, tableName(999)+tmpSuffix)
	if err := os.WriteFile(torn, []byte("partial table write"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := writeTestTable(t, dir, 998, 50)
	orphan.f.Close()

	e2, err := Open(Options{Dir: dir, Tuning: tune})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer e2.Close()
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn temp file survived recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, tableName(998))); !os.IsNotExist(err) {
		t.Fatal("orphan table survived recovery")
	}
	if err := e2.Scrub(); err != nil {
		t.Fatalf("recovered engine failed scrub: %v", err)
	}
	// Whatever did flush before the crash must still read correctly.
	if err := e2.Iter(nil, nil, func(k, v []byte) bool { return true }); err != nil {
		t.Fatalf("scan after recovery: %v", err)
	}
}

// TestEngineConcurrentReadsDuringWrites hammers the engine with one writer
// (the docstore contract) and several readers while flushes and compactions
// run underneath; run with -race.
func TestEngineConcurrentReadsDuringWrites(t *testing.T) {
	e := testEngine(t, smallTuning())
	const keys = 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				k := []byte(fmt.Sprintf("key-%04d", rng.Intn(keys)))
				if _, _, err := e.Get(k); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if rng.Intn(20) == 0 {
					if err := e.Iter(nil, nil, func(k, v []byte) bool { return true }); err != nil {
						t.Errorf("iter: %v", err)
						return
					}
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 4000; op++ {
		k := []byte(fmt.Sprintf("key-%04d", rng.Intn(keys)))
		var err error
		if rng.Intn(8) == 0 {
			err = e.Delete(k, uint64(op+1))
		} else {
			err = e.Apply(k, bytes.Repeat([]byte("p"), 50), uint64(op+1))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

func TestRateBucket(t *testing.T) {
	b := newRateBucket(1 << 20) // 1 MiB/s
	if b.take(1024) != 0 {
		t.Fatal("burst allowance should absorb the first block")
	}
	var stall bool
	for i := 0; i < 64; i++ {
		if b.take(1<<20) > 0 {
			stall = true
		}
	}
	if !stall {
		t.Fatal("sustained overdraw never stalled")
	}
	if newRateBucket(0) != nil {
		t.Fatal("zero bandwidth should disable the bucket")
	}
}
