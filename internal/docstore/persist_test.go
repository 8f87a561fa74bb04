package docstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mystore/internal/bson"
	"mystore/internal/wal"
)

func diskStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, WAL: wal.Options{SegmentSize: 4096}})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	c := s.C("records")
	c.EnsureIndex("self-key", false) //nolint:errcheck
	for i := 0; i < 50; i++ {
		if _, err := c.Insert(record(fmt.Sprintf("k%02d", i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete some, update some.
	docs, _ := c.Find(Filter{{Key: "self-key", Value: "k10"}}, FindOptions{})
	id, _ := docs[0].Get("_id")
	c.Delete(id) //nolint:errcheck
	docs, _ = c.Find(Filter{{Key: "self-key", Value: "k20"}}, FindOptions{})
	c.Update(docs[0].Set("isDel", "1")) //nolint:errcheck
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := diskStore(t, dir)
	defer s2.Close()
	c2 := s2.C("records")
	if c2.Len() != 49 {
		t.Fatalf("Len after reopen = %d, want 49", c2.Len())
	}
	// Index definitions are recovered and functional.
	got, err := c2.Find(Filter{{Key: "self-key", Value: "k20"}}, FindOptions{})
	if err != nil || len(got) != 1 {
		t.Fatalf("indexed query after reopen: %d docs, err %v", len(got), err)
	}
	if got[0].StringOr("isDel", "") != "1" {
		t.Fatal("update lost across reopen")
	}
	if s2.Stats().IndexHits == 0 {
		t.Error("recovered index was not used")
	}
	if got, _ := c2.Find(Filter{{Key: "self-key", Value: "k10"}}, FindOptions{}); len(got) != 0 {
		t.Fatal("deleted document resurrected on reopen")
	}
}

// TestCompactAndRecoverFromTablesAndWALTail: Compact flushes the memtable to
// tables and checkpoints the WAL past it; after a crash, reopen loads the
// tables and replays exactly the records written since.
func TestCompactAndRecoverFromTablesAndWALTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, WAL: wal.Options{SegmentSize: 4096, SyncEveryAppend: true}}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	c := s.C("records")
	c.EnsureIndex("self-key", true) //nolint:errcheck
	for i := 0; i < 100; i++ {
		c.Insert(record(fmt.Sprintf("k%03d", i), 128)) //nolint:errcheck
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if tables, _ := filepath.Glob(filepath.Join(dir, "tables", "*.sst")); len(tables) == 0 {
		t.Fatal("Compact wrote no table")
	}
	// Write more after the flush, then crash so nothing flushes them:
	// recovery = tables + WAL tail.
	const tail = 20
	for i := 100; i < 100+tail; i++ {
		c.Insert(record(fmt.Sprintf("k%03d", i), 128)) //nolint:errcheck
	}
	s.Crash()

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.ReplayedOps(); got != tail {
		t.Fatalf("reopen replayed %d WAL records, want the %d written after Compact", got, tail)
	}
	c2 := s2.C("records")
	if c2.Len() != 120 {
		t.Fatalf("Len after recovery = %d, want 120", c2.Len())
	}
	// The unique index survived in the tables.
	if _, err := c2.Insert(record("k050", 8)); err == nil {
		t.Fatal("unique index lost through the flush")
	}
	if got, _ := c2.Find(Filter{{Key: "self-key", Value: "k115"}}, FindOptions{}); len(got) != 1 {
		t.Fatal("post-flush WAL tail not replayed")
	}
}

func TestCompactTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	c := s.C("records")
	for i := 0; i < 300; i++ {
		c.Insert(record(fmt.Sprintf("k%03d", i), 256)) //nolint:errcheck
	}
	segsBefore, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("Compact kept %d of %d segments", len(segsAfter), len(segsBefore))
	}
	s.Close()
	// Everything still recovers.
	s2 := diskStore(t, dir)
	defer s2.Close()
	if got := s2.C("records").Len(); got != 300 {
		t.Fatalf("Len after compacted recovery = %d, want 300", got)
	}
}

func TestCompactInMemoryIsNoop(t *testing.T) {
	s := scratchStore(t)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact on a scratch store: %v", err)
	}
}

func TestRejectedOpsNotPersisted(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	c := s.C("records")
	c.Insert(record("a", 8).Set("_id", "k")) //nolint:errcheck
	// This duplicate is rejected and must not pollute the WAL.
	if _, err := c.Insert(record("b", 8).Set("_id", "k")); err == nil {
		t.Fatal("duplicate accepted")
	}
	s.Close()
	s2 := diskStore(t, dir)
	defer s2.Close()
	got, _ := s2.C("records").Get("k")
	if got.StringOr("self-key", "") != "a" {
		t.Fatalf("rejected op replayed: %s", got)
	}
}

func TestDropCollectionPersists(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	s.C("gone").Insert(record("x", 8))  //nolint:errcheck
	s.C("stays").Insert(record("y", 8)) //nolint:errcheck
	s.DropCollection("gone")            //nolint:errcheck
	s.Close()
	s2 := diskStore(t, dir)
	defer s2.Close()
	if s2.C("gone").Len() != 0 {
		t.Fatal("dropped collection resurrected")
	}
	if s2.C("stays").Len() != 1 {
		t.Fatal("surviving collection lost")
	}
}

// TestOpenRefusesMapEngineDirectory: the retired map engine kept its documents
// in a snapshot file over a WAL truncated below it. Opening such a directory
// as lsm would serve a store missing the snapshot's contents, so Open refuses
// it, names the file, and leaves the directory as it was. A request for the
// map engine by name is refused too.
func TestOpenRefusesMapEngineDirectory(t *testing.T) {
	for _, name := range []string{"snapshot.bson", "snapshot.bson.tmp"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, name), []byte("map engine contents"), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(Options{Dir: dir})
			if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "map engine") {
				t.Fatalf("Open over a map-engine directory = %v, want an error naming %s and the map engine", err, name)
			}
			if _, err := os.Stat(filepath.Join(dir, "wal")); !os.IsNotExist(err) {
				t.Fatalf("the refused Open created a WAL: %v", err)
			}
		})
	}
	t.Run("engine map", func(t *testing.T) {
		for _, dir := range []string{t.TempDir(), ""} {
			if _, err := Open(Options{Dir: dir, Engine: "map"}); err == nil || !strings.Contains(err.Error(), `"map"`) {
				t.Fatalf("Open(Dir %q, Engine map) = %v, want an error naming the engine", dir, err)
			}
		}
	})
}

func TestLargeDocumentPersistence(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	// A multi-megabyte video record, as VeePalms stores.
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := s.C("videos").Insert(bson.D{
		{Key: "_id", Value: "video-1"},
		{Key: "self-key", Value: "guideline-video"},
		{Key: "val", Value: big},
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := diskStore(t, dir)
	defer s2.Close()
	got, ok := s2.C("videos").Get("video-1")
	if !ok {
		t.Fatal("large document lost")
	}
	val, _ := got.Get("val")
	if len(val.([]byte)) != len(big) {
		t.Fatalf("large value truncated: %d bytes", len(val.([]byte)))
	}
}
