package nwr

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mystore/internal/docstore"
	"mystore/internal/lsm"
	"mystore/internal/wal"
)

// Records are stored under _id = self-key, so the store's primary index is
// the only index on the write path. These tests pin what that buys: a new
// key costs no scan at any collection size, the records collection carries
// no per-key index in memory, and a reopened store finds every record by key
// without rebuilding anything.

// lsmStore opens an lsm-backed store in dir with a memtable small enough
// that a few hundred records flush to tables.
func lsmStore(tb testing.TB, dir string, durable bool) *docstore.Store {
	tb.Helper()
	store, err := docstore.Open(docstore.Options{
		Dir:     dir,
		Engine:  "lsm",
		WAL:     wal.Options{SyncEveryAppend: durable},
		Storage: lsm.Tuning{MemtableBytes: 64 << 10},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return store
}

func localCoordinator(tb testing.TB, store *docstore.Store) *Coordinator {
	tb.Helper()
	coord, err := NewCoordinator(Config{N: 1, W: 1, R: 1, CallTimeout: time.Second}, "self", nil, nil, store)
	if err != nil {
		tb.Fatal(err)
	}
	return coord
}

func newKeyRecord(i int, val []byte) Record {
	return Record{Key: fmt.Sprintf("grow-%06d", i), Val: val, IsData: true, Ver: int64(i + 1), Origin: "self"}
}

func TestNewKeysNeverScan(t *testing.T) {
	store := lsmStore(t, t.TempDir(), false)
	defer store.Close()
	coord := localCoordinator(t, store)
	ctx := context.Background()
	val := make([]byte, 128)
	before := store.Stats()
	const keys = 4096
	for i := 0; i < keys; i++ {
		if err := coord.ApplyLocalCtx(ctx, newKeyRecord(i, val)); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	after := store.Stats()
	if after.Scans != before.Scans {
		t.Fatalf("%d new-key applies scanned the collection %d times", keys, after.Scans-before.Scans)
	}
	if after.IndexHits == before.IndexHits {
		t.Fatal("new-key applies were not counted as index lookups")
	}
	if ix := store.C(RecordCollection).Indexes(); len(ix) != 0 {
		t.Fatalf("records collection carries secondary indexes %v; the primary key is the self-key", ix)
	}
	if got := store.C(RecordCollection).Len(); got != keys {
		t.Fatalf("records = %d, want %d", got, keys)
	}
}

// TestDuplicateInsertRaceConverges races appliers of one key: two over a
// never-seen key, and eight of distinct versions over a key the
// store already holds. The replica apply is one conditional put whose
// predicate runs with writers excluded, so whichever applier gets there first
// the survivor is the last-write-wins winner and the key has one row.
func TestDuplicateInsertRaceConverges(t *testing.T) {
	const keys = 200
	for _, tc := range []struct {
		name     string
		preload  bool
		appliers int
	}{
		{"absent key, 2 appliers", false, 2},
		{"existing key, 8 appliers", true, 8},
	} {
		t.Run(tc.name+"/lsm", func(t *testing.T) {
			store := lsmStore(t, t.TempDir(), false)
			defer store.Close()
			coord := localCoordinator(t, store)
			key := func(i int) string { return fmt.Sprintf("raced-%03d", i) }
			if tc.preload {
				for i := 0; i < keys; i++ {
					if err := coord.ApplyLocal(Record{Key: key(i), Val: []byte("old"), IsData: true, Ver: 1, Origin: "z"}); err != nil {
						t.Fatal(err)
					}
				}
			}
			top := int64(10 + tc.appliers - 1)
			var wg sync.WaitGroup
			for i := 0; i < keys; i++ {
				for a := 0; a < tc.appliers; a++ {
					wg.Add(1)
					go func(rec Record) {
						defer wg.Done()
						if err := coord.ApplyLocal(rec); err != nil {
							t.Errorf("apply %s: %v", rec.Key, err)
						}
					}(Record{Key: key(i), Val: []byte(fmt.Sprintf("v%d", 10+a)), IsData: true, Ver: int64(10 + a), Origin: "a"})
				}
			}
			wg.Wait()
			regressed := 0
			for i := 0; i < keys; i++ {
				rec, found, err := coord.GetLocal(key(i))
				if err != nil || !found {
					t.Fatalf("%s: found %v, err %v", key(i), found, err)
				}
				if rec.Ver != top || string(rec.Val) != fmt.Sprintf("v%d", top) {
					regressed++
				}
			}
			if regressed > 0 {
				t.Errorf("%d of %d keys ended below version %d: an older applier landed last", regressed, keys, top)
			}
			if got := store.C(RecordCollection).Len(); got != keys {
				t.Fatalf("records = %d, want one row per key (%d)", got, keys)
			}
		})
	}
}

// TestReopenFindsRecordsByKey: after a clean Close and after a Crash, the
// reopened store serves every record by key, and opening it neither scans
// the collection nor rebuilds an index.
func TestReopenFindsRecordsByKey(t *testing.T) {
	for _, how := range []string{"close", "crash"} {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			store := lsmStore(t, dir, true) // acked writes must survive the crash
			coord := localCoordinator(t, store)
			const keys = 400
			val := make([]byte, 512)
			for i := 0; i < keys; i++ {
				if err := coord.ApplyLocal(newKeyRecord(i, val)); err != nil {
					t.Fatal(err)
				}
			}
			if how == "crash" {
				store.Crash()
			} else if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			store = lsmStore(t, dir, true)
			defer store.Close()
			coord = localCoordinator(t, store)
			if st := store.Stats(); st.Scans != 0 {
				t.Fatalf("opening the store scanned %d times", st.Scans)
			}
			if ix := store.C(RecordCollection).Indexes(); len(ix) != 0 {
				t.Fatalf("reopened records collection carries indexes %v", ix)
			}
			for i := 0; i < keys; i++ {
				want := newKeyRecord(i, val)
				rec, found, err := coord.GetLocal(want.Key)
				if err != nil || !found || rec.Ver != want.Ver {
					t.Fatalf("after %s: %s = %+v (found %v, err %v)", how, want.Key, rec.Ver, found, err)
				}
			}
			// A many-key read goes through the same index.
			batch, consumed, err := coord.readLocal([]string{"grow-000000", "grow-000399", "grow-absent"}, false)
			if err != nil || len(batch) != 2 || consumed != 3 {
				t.Fatalf("readLocal = %d records, consumed %d, %v; want 2 and 3", len(batch), consumed, err)
			}
			if st := store.Stats(); st.Scans != 0 {
				t.Fatalf("reading by key scanned %d times", st.Scans)
			}
		})
	}
}

// TestOldRecordLayoutRefused: a records collection that declares a self-key
// index was written when _id was an ObjectId. Its rows cannot be found by
// key, so serving it would answer "not found" for data that is there.
func TestOldRecordLayoutRefused(t *testing.T) {
	store, err := docstore.Open(docstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.C(RecordCollection).EnsureIndex("self-key", true); err != nil {
		t.Fatal(err)
	}
	_, err = NewCoordinator(Config{N: 1, W: 1, R: 1, CallTimeout: time.Second}, "self", nil, nil, store)
	if err == nil {
		t.Fatal("NewCoordinator accepted a store in the previous record layout")
	}
	for _, want := range []string{RecordCollection, "self-key", "previous record layout"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// BenchmarkApplyLocalNewKey is the replica write path's layer benchmark: the
// first write of a key into an lsm-backed store that already holds n
// records. The cost must not depend on n (within 2x between the two sizes).
func BenchmarkApplyLocalNewKey(b *testing.B) {
	for _, n := range []int{0, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			store := lsmStore(b, b.TempDir(), false)
			defer store.Close()
			coord := localCoordinator(b, store)
			ctx := context.Background()
			val := make([]byte, 1024)
			for i := 0; i < n; i++ {
				if err := coord.ApplyLocalCtx(ctx, newKeyRecord(i, val)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := coord.ApplyLocalCtx(ctx, newKeyRecord(n+i, val)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplyLocalOverwrite is the other half of the replica write path:
// a newer version of a 4 KiB record the lsm-backed store already holds — what
// every overwriting POST costs each of its N replicas.
func BenchmarkApplyLocalOverwrite(b *testing.B) {
	store := lsmStore(b, b.TempDir(), false)
	defer store.Close()
	coord := localCoordinator(b, store)
	ctx := context.Background()
	val := make([]byte, 4096)
	const keys = 512
	for i := 0; i < keys; i++ {
		if err := coord.ApplyLocalCtx(ctx, newKeyRecord(i, val)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := newKeyRecord(i%keys, val)
		rec.Ver = int64(keys + i + 1)
		if err := coord.ApplyLocalCtx(ctx, rec); err != nil {
			b.Fatal(err)
		}
	}
}
