package docstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mystore/internal/bson"
	"mystore/internal/lsm"
	"mystore/internal/wal"
)

// Tiny lsm tuning so small test workloads still exercise flushes, multiple
// tables, and compaction.
func testTuning() lsm.Tuning {
	return lsm.Tuning{
		MemtableBytes:    8 << 10,
		BlockBytes:       512,
		BlockCacheBytes:  64 << 10,
		L0CompactTrigger: 3,
		LevelBaseBytes:   32 << 10,
		TargetFileBytes:  16 << 10,
		MaxImmutable:     2,
	}
}

func lsmStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{
		Dir:     dir,
		WAL:     wal.Options{SegmentSize: 4096},
		Storage: testTuning(),
	})
	if err != nil {
		t.Fatalf("Open lsm store: %v", err)
	}
	return s
}

// contents walks every collection and returns name -> _id key -> document,
// read through the public scan path.
func contents(s *Store) map[string]map[string]bson.D {
	out := make(map[string]map[string]bson.D)
	for _, name := range s.Collections() {
		docs := make(map[string]bson.D)
		s.C(name).Each(func(doc bson.D) bool {
			id, _ := doc.Get("_id")
			docs[fmt.Sprintf("%v", id)] = doc
			return true
		})
		out[name] = docs
	}
	return out
}

// TestEngineEquivalence drives a store with the tiny test tuning and a
// reference store with one randomized op sequence and checks they agree:
// after every round, after a memtable flush plus a full compaction, after a
// collection drop and after reopen. The reference runs the default tuning,
// whose memtable the workload never fills, so it answers from the memtable
// alone while the store under test crosses tables, compaction and restart.
// The seeds are fixed, and every failure names its seed, so a divergence
// replays.
func TestEngineEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { testEngineEquivalence(t, seed) })
	}
}

func testEngineEquivalence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	ref, ls := scratchStore(t), lsmStore(t, dir)
	defer func() { ls.Close() }()

	colls := []string{"alpha", "beta", "gamma"}
	indexed := colls[:2]
	// ids we know exist, per collection, for targeted updates/deletes.
	live := map[string][]string{}
	next := 0

	apply := func(fn func(s *Store) error) {
		t.Helper()
		if err := fn(ref); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if err := fn(ls); err != nil {
			t.Fatalf("seed %d: lsm: %v", seed, err)
		}
	}
	findIDs := func(s *Store, coll string, f Filter) []string {
		t.Helper()
		docs, err := s.C(coll).Find(f, FindOptions{})
		if err != nil {
			t.Fatalf("seed %d: find in %s: %v", seed, coll, err)
		}
		ids := make([]string, len(docs))
		for i, d := range docs {
			id, _ := d.Get("_id")
			ids[i] = fmt.Sprint(id)
		}
		sort.Strings(ids)
		return ids
	}
	check := func(stage string) {
		t.Helper()
		want := contents(ref)
		if got := contents(ls); !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d, %s: the lsm store diverged from the reference", seed, stage)
		}
		for coll, docs := range want {
			if n := ls.C(coll).Len(); n != len(docs) {
				t.Fatalf("seed %d, %s: %s Len = %d, want %d", seed, stage, coll, n, len(docs))
			}
		}
		for _, coll := range indexed {
			for tag := 0; tag < 20; tag++ {
				f := Filter{{Key: "tag", Value: fmt.Sprintf("t%d", tag)}}
				if want, got := findIDs(ref, coll, f), findIDs(ls, coll, f); !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d, %s: indexed find %s tag t%d: reference %v, lsm %v", seed, stage, coll, tag, want, got)
				}
			}
		}
	}

	for _, coll := range indexed {
		apply(func(s *Store) error { return s.C(coll).EnsureIndex("tag", false) })
	}

	const rounds = 6
	const opsPerRound = 300
	for round := 0; round < rounds; round++ {
		for i := 0; i < opsPerRound; i++ {
			coll := colls[rng.Intn(len(colls))]
			switch r := rng.Float64(); {
			case r < 0.55 || len(live[coll]) == 0: // insert
				id := fmt.Sprintf("d%06d", next)
				next++
				doc := bson.D{
					{Key: "_id", Value: id},
					{Key: "tag", Value: fmt.Sprintf("t%d", rng.Intn(20))},
					{Key: "pad", Value: strings.Repeat("x", rng.Intn(100))},
				}
				apply(func(s *Store) error { _, err := s.C(coll).Insert(doc); return err })
				live[coll] = append(live[coll], id)
			case r < 0.80: // update
				id := live[coll][rng.Intn(len(live[coll]))]
				doc := bson.D{
					{Key: "_id", Value: id},
					{Key: "tag", Value: fmt.Sprintf("t%d", rng.Intn(20))},
					{Key: "rev", Value: int64(round)},
				}
				apply(func(s *Store) error { return s.C(coll).Update(doc) })
			default: // delete
				n := rng.Intn(len(live[coll]))
				id := live[coll][n]
				live[coll] = append(live[coll][:n], live[coll][n+1:]...)
				apply(func(s *Store) error { _, err := s.C(coll).Delete(id); return err })
			}
		}
		check(fmt.Sprintf("round %d", round))

		// Flush and compact mid-history so the comparison spans
		// memtable-only, mixed, and table-resident states.
		if round%2 == 1 {
			if err := ls.Compact(); err != nil {
				t.Fatalf("seed %d: Compact: %v", seed, err)
			}
			if err := ls.Engine().CompactNow(); err != nil {
				t.Fatalf("seed %d: CompactNow: %v", seed, err)
			}
			check(fmt.Sprintf("round %d, after Compact + CompactNow", round))
		}
	}

	apply(func(s *Store) error { return s.DropCollection("gamma") })
	check("after DropCollection")

	// The comparison must have spanned tables and compaction.
	if st := ls.Engine().Stats(); st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("seed %d: the store under test flushed %d times and compacted %d times, want both", seed, st.Flushes, st.Compactions)
	}
	// Reopen the lsm store; its state and index definitions must survive.
	if err := ls.Close(); err != nil {
		t.Fatalf("seed %d: Close: %v", seed, err)
	}
	ls = lsmStore(t, dir)
	check("after reopen")
	for _, coll := range indexed {
		if got := ls.C(coll).Indexes(); len(got) != 1 || got[0] != "tag" {
			t.Fatalf("seed %d: %s indexes after reopen = %v, want [tag]", seed, coll, got)
		}
	}
	if st := ref.Engine().Stats(); st.Flushes != 0 || st.Tables != 0 {
		t.Fatalf("seed %d: the reference flushed %d times and holds %d tables, want a memtable only", seed, st.Flushes, st.Tables)
	}
}

// TestLSMRestartReplaysOnlyTail is the checkpointing contract: after a
// flush, reopening replays only ops past the checkpoint, not the full
// history.
func TestLSMRestartReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	s := lsmStore(t, dir)
	c := s.C("records")
	const total = 500
	for i := 0; i < total; i++ {
		if _, err := c.Insert(record(fmt.Sprintf("k%04d", i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil { // flush => checkpoint => WAL truncate
		t.Fatal(err)
	}
	const tail = 25
	for i := 0; i < tail; i++ {
		if _, err := c.Insert(record(fmt.Sprintf("tail%04d", i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := lsmStore(t, dir)
	defer s2.Close()
	if n := s2.C("records").Len(); n != total+tail {
		t.Fatalf("Len after reopen = %d, want %d", n, total+tail)
	}
	if replayed := s2.ReplayedOps(); replayed >= total {
		t.Fatalf("reopen replayed %d ops; checkpoint should bound it well under %d", replayed, total)
	}
}

// TestLSMCrashDuringFlushRecovers is satellite 1 at the store level: a
// kill -9 while a memtable flush is mid-write must lose no acknowledged
// write and must never load a torn table. We simulate the torn flush by
// crashing the store (which abandons in-flight table writes) and planting
// a half-written .tmp plus an orphan .sst in the table directory.
func TestLSMCrashDuringFlushRecovers(t *testing.T) {
	dir := t.TempDir()
	s := lsmStore(t, dir)
	c := s.C("records")
	const n = 400 // several memtable budgets worth
	for i := 0; i < n; i++ {
		doc := bson.D{{Key: "_id", Value: fmt.Sprintf("k%04d", i)}, {Key: "val", Value: make([]byte, 128)}}
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	// Every insert above was acked (WAL-durable). Crash without flushing.
	s.Crash()

	// A crash mid-flush leaves a torn temp table; a crash between a table's
	// rename and its manifest commit leaves an orphan .sst. Plant both.
	tables := filepath.Join(dir, "tables")
	torn := filepath.Join(tables, "999999999998.tmp")
	orphan := filepath.Join(tables, "999999999999.sst")
	for _, p := range []string{torn, orphan} {
		if err := os.WriteFile(p, []byte("torn partial table write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := lsmStore(t, dir)
	defer s2.Close()
	if got := s2.C("records").Len(); got != n {
		t.Fatalf("recovered %d documents, want %d (acked writes lost)", got, n)
	}
	for _, i := range []int{0, n / 2, n - 1} {
		if _, ok := s2.C("records").Get(fmt.Sprintf("k%04d", i)); !ok {
			t.Fatalf("acked write k%04d lost after crash", i)
		}
	}
	// The junk files were never loaded — and were removed at open.
	for _, p := range []string{torn, orphan} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s still present after recovery open", filepath.Base(p))
		}
	}
	// Every surviving table passes a full checksum scrub.
	if err := s2.Engine().Scrub(); err != nil {
		t.Fatalf("post-recovery scrub: %v", err)
	}
}
