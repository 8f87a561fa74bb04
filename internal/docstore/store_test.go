package docstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mystore/internal/bson"
	"mystore/internal/uuid"
)

func scratchStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func record(selfKey string, size int) bson.D {
	return bson.D{
		{Key: "self-key", Value: selfKey},
		{Key: "val", Value: make([]byte, size)},
		{Key: "isData", Value: "1"},
		{Key: "isDel", Value: "0"},
	}
}

func TestInsertAssignsObjectId(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	id, err := c.Insert(record("Resistor5", 16))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	oid, ok := id.(uuid.ObjectId)
	if !ok || oid == (uuid.ObjectId{}) {
		t.Fatalf("assigned id = %T %v", id, id)
	}
	doc, found := c.Get(id)
	if !found {
		t.Fatal("Get after Insert: not found")
	}
	if doc[0].Key != "_id" {
		t.Fatalf("_id not first field: %s", doc)
	}
	if got := doc.StringOr("self-key", ""); got != "Resistor5" {
		t.Fatalf("self-key = %q", got)
	}
}

func TestInsertExplicitIdAndDuplicate(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	doc := record("a", 4).Set("_id", "my-key")
	if _, err := c.Insert(doc); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := c.Insert(doc); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert err = %v, want ErrDuplicate", err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after rejected duplicate", c.Len())
	}
}

func TestInsertRejectsBadIdType(t *testing.T) {
	s := scratchStore(t)
	_, err := s.C("x").Insert(bson.D{{Key: "_id", Value: 3.14}})
	if !errors.Is(err, ErrBadId) {
		t.Fatalf("err = %v, want ErrBadId", err)
	}
}

func TestInsertClonesInput(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	doc := bson.D{{Key: "_id", Value: "k"}, {Key: "val", Value: []byte{1, 2}}}
	if _, err := c.Insert(doc); err != nil {
		t.Fatal(err)
	}
	doc[1].Value.([]byte)[0] = 99 // caller mutates after insert
	got, _ := c.Get("k")
	if got[1].Value.([]byte)[0] != 1 {
		t.Fatal("store shares memory with caller's document")
	}
}

// TestCallerMutationsDoNotReachTheStore: the store keeps only encoded
// documents, so mutating a document after Insert or PutIf, or one that Get or
// Find returned, changes neither the stored document nor a secondary index.
func TestCallerMutationsDoNotReachTheStore(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	if err := c.EnsureIndex("tag", false); err != nil {
		t.Fatal(err)
	}
	doc := func(id string) bson.D {
		return bson.D{{Key: "_id", Value: id}, {Key: "tag", Value: "red"}, {Key: "val", Value: []byte{1}}}
	}
	mutate := func(d bson.D) {
		d[1].Value = "blue"
		d[2].Value.([]byte)[0] = 9
	}
	inserted, putIf := doc("a"), doc("b")
	if _, err := c.Insert(inserted); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.PutIf(context.Background(), putIf, nil); err != nil || !ok {
		t.Fatalf("PutIf = %v, %v", ok, err)
	}
	mutate(inserted)
	mutate(putIf)
	if got, ok := c.Get("a"); ok {
		mutate(got)
	}
	red := Filter{{Key: "tag", Value: "red"}}
	found, err := c.Find(red, FindOptions{})
	if err != nil || len(found) != 2 {
		t.Fatalf("Find = %d docs, %v", len(found), err)
	}
	for _, d := range found {
		mutate(d)
	}

	for _, id := range []string{"a", "b"} {
		got, ok := c.Get(id)
		if !ok || got.StringOr("tag", "") != "red" || got[2].Value.([]byte)[0] != 1 {
			t.Errorf("stored %s = %v, want it as written", id, got)
		}
	}
	if found, err := c.Find(red, FindOptions{}); err != nil || len(found) != 2 {
		t.Errorf("index finds %d red documents (%v), want 2", len(found), err)
	}
	if found, err := c.Find(Filter{{Key: "tag", Value: "blue"}}, FindOptions{}); err != nil || len(found) != 0 {
		t.Errorf("index finds %d blue documents (%v), want 0", len(found), err)
	}
}

func TestUpdate(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	doc := record("a", 4).Set("_id", "k")
	c.Insert(doc) //nolint:errcheck
	updated := record("a", 4).Set("_id", "k").Set("isDel", "1")
	if err := c.Update(updated); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, _ := c.Get("k")
	if got.StringOr("isDel", "") != "1" {
		t.Fatalf("update not applied: %s", got)
	}
	if err := c.Update(record("b", 4).Set("_id", "missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing err = %v", err)
	}
	if err := c.Update(record("b", 4)); !errors.Is(err, ErrBadId) {
		t.Fatalf("update without _id err = %v", err)
	}
}

func TestUpsert(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	if _, err := c.Upsert(record("a", 4).Set("_id", "k")); err != nil {
		t.Fatalf("Upsert insert: %v", err)
	}
	if _, err := c.Upsert(record("a2", 4).Set("_id", "k")); err != nil {
		t.Fatalf("Upsert update: %v", err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	got, _ := c.Get("k")
	if got.StringOr("self-key", "") != "a2" {
		t.Fatalf("upsert did not replace: %s", got)
	}
	// Upsert without _id inserts fresh.
	if _, err := c.Upsert(record("b", 4)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestDelete(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	c.Insert(record("a", 4).Set("_id", "k")) //nolint:errcheck
	ok, err := c.Delete("k")
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, found := c.Get("k"); found {
		t.Fatal("document survives Delete")
	}
	ok, err = c.Delete("k")
	if err != nil || ok {
		t.Fatalf("second Delete = %v, %v; want false, nil", ok, err)
	}
}

func TestFindWithIndexAndScan(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	if err := c.EnsureIndex("self-key", false); err != nil {
		t.Fatalf("EnsureIndex: %v", err)
	}
	for i := 0; i < 200; i++ {
		doc := record(fmt.Sprintf("key-%03d", i), 8).Set("size", int64(i))
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	// Indexed equality.
	docs, err := c.Find(Filter{{Key: "self-key", Value: "key-007"}}, FindOptions{})
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	if len(docs) != 1 {
		t.Fatalf("indexed equality returned %d docs", len(docs))
	}
	st := s.Stats()
	if st.IndexHits == 0 {
		t.Error("indexed query did not count an index hit")
	}
	// Unindexed predicate forces a scan.
	docs, err = c.Find(Filter{{Key: "size", Value: bson.D{{Key: "$gte", Value: int64(195)}}}}, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 5 {
		t.Fatalf("scan range returned %d docs, want 5", len(docs))
	}
	if s.Stats().Scans == 0 {
		t.Error("unindexed query did not count a scan")
	}
	// Indexed range via the index.
	if err := c.EnsureIndex("size", false); err != nil {
		t.Fatal(err)
	}
	docs, err = c.Find(Filter{{Key: "size", Value: bson.D{{Key: "$gt", Value: int64(189)}, {Key: "$lte", Value: int64(194)}}}}, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 5 {
		t.Fatalf("indexed range returned %d docs, want 5 (190..194)", len(docs))
	}
	// $in through the index.
	docs, err = c.Find(Filter{{Key: "self-key", Value: bson.D{{Key: "$in", Value: bson.A{"key-001", "key-002", "nope"}}}}}, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("$in returned %d docs, want 2", len(docs))
	}
}

// TestIndexMissNeverScans pins the planner contract the replica write path
// leans on: an index that yields no candidates has answered the query. Each
// miss returns nothing, counts one index hit and no scan — "nobody has this
// value" must not be read as "there is no index".
func TestIndexMissNeverScans(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	for _, field := range []string{"self-key", "size"} {
		if err := c.EnsureIndex(field, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		doc := record(fmt.Sprintf("key-%03d", i), 8).Set("_id", fmt.Sprintf("id-%03d", i)).Set("size", int64(i))
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	misses := []struct {
		name   string
		filter Filter
	}{
		{"implicit equality", Filter{{Key: "self-key", Value: "ghost"}}},
		{"$eq", Filter{{Key: "self-key", Value: bson.D{{Key: "$eq", Value: "ghost"}}}}},
		{"all-miss $in", Filter{{Key: "self-key", Value: bson.D{{Key: "$in", Value: bson.A{"ghost", "wraith"}}}}}},
		{"empty range", Filter{{Key: "size", Value: bson.D{{Key: "$gte", Value: int64(1000)}}}}},
		{"_id miss", Filter{{Key: "_id", Value: "id-999"}}},
		{"_id all-miss $in", Filter{{Key: "_id", Value: bson.D{{Key: "$in", Value: bson.A{"id-998", "id-999"}}}}}},
	}
	for _, m := range misses {
		before := s.Stats()
		docs, err := c.Find(m.filter, FindOptions{})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		after := s.Stats()
		if len(docs) != 0 {
			t.Errorf("%s: returned %d documents, want none", m.name, len(docs))
		}
		if after.Scans != before.Scans {
			t.Errorf("%s: an index miss fell through to a scan", m.name)
		}
		if after.IndexHits != before.IndexHits+1 {
			t.Errorf("%s: IndexHits moved by %d, want 1", m.name, after.IndexHits-before.IndexHits)
		}
	}
	// Get is a primary-index lookup and is counted as one, hit or miss.
	before := s.Stats()
	if _, ok := c.Get("id-999"); ok {
		t.Error("Get of an absent _id found a document")
	}
	if after := s.Stats(); after.Scans != before.Scans || after.IndexHits != before.IndexHits+1 {
		t.Errorf("Get: scans %+d, index hits %+d; want 0 and 1",
			after.Scans-before.Scans, after.IndexHits-before.IndexHits)
	}
	// A filter no index serves still scans, and still finds nothing.
	before = s.Stats()
	docs, err := c.Find(Filter{{Key: "isDel", Value: "1"}}, FindOptions{})
	if err != nil || len(docs) != 0 {
		t.Fatalf("unindexed miss = %d docs, %v", len(docs), err)
	}
	if after := s.Stats(); after.Scans != before.Scans+1 || after.IndexHits != before.IndexHits {
		t.Error("a filter on an unindexed field did not scan")
	}
}

func TestFindByPrimaryKey(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	for i := 0; i < 50; i++ {
		c.Insert(record("r", 4).Set("_id", fmt.Sprintf("id-%02d", i))) //nolint:errcheck
	}
	docs, err := c.Find(Filter{{Key: "_id", Value: "id-07"}}, FindOptions{})
	if err != nil || len(docs) != 1 {
		t.Fatalf("Find by _id: %d docs, err %v", len(docs), err)
	}
	if s.Stats().IndexHits == 0 {
		t.Error("primary-key query did not use the primary index")
	}
	docs, err = c.Find(Filter{{Key: "_id", Value: bson.D{{Key: "$in", Value: bson.A{"id-01", "id-02"}}}}}, FindOptions{})
	if err != nil || len(docs) != 2 {
		t.Fatalf("Find by _id $in: %d docs, err %v", len(docs), err)
	}
}

func TestFindSortSkipLimitProjection(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	for i := 0; i < 20; i++ {
		c.Insert(record(fmt.Sprintf("k%02d", i), 4).Set("n", int64(i))) //nolint:errcheck
	}
	docs, err := c.Find(Filter{}, FindOptions{
		Sort:       []SortField{{Field: "n", Desc: true}},
		Skip:       2,
		Limit:      3,
		Projection: []string{"n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("got %d docs, want 3", len(docs))
	}
	for i, want := range []int64{17, 16, 15} {
		n, _ := docs[i].Get("n")
		if n != want {
			t.Errorf("docs[%d].n = %v, want %d", i, n, want)
		}
		if has(docs[i], "self-key") {
			t.Error("projection kept self-key")
		}
		if !has(docs[i], "_id") {
			t.Error("projection dropped _id")
		}
	}
}

func TestFindOneAndCount(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	for i := 0; i < 10; i++ {
		c.Insert(record("dup", 4)) //nolint:errcheck
	}
	doc, found, err := c.FindOne(Filter{{Key: "self-key", Value: "dup"}})
	if err != nil || !found || doc == nil {
		t.Fatalf("FindOne = %v, %v, %v", doc, found, err)
	}
	_, found, err = c.FindOne(Filter{{Key: "self-key", Value: "none"}})
	if err != nil || found {
		t.Fatalf("FindOne(none) found=%v err=%v", found, err)
	}
	docs, err := c.Find(Filter{{Key: "self-key", Value: "dup"}}, FindOptions{})
	if err != nil || len(docs) != 10 {
		t.Fatalf("Find = %d docs, %v", len(docs), err)
	}
	if n := c.Len(); n != 10 {
		t.Fatalf("Len = %d", n)
	}
}

func TestFindBadFilterPropagates(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	c.Insert(record("a", 4)) //nolint:errcheck
	if _, err := c.Find(Filter{{Key: "x", Value: bson.D{{Key: "$bogus", Value: 1}}}}, FindOptions{}); !errors.Is(err, ErrBadFilter) {
		t.Fatalf("err = %v, want ErrBadFilter", err)
	}
}

func TestUniqueIndex(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	if err := c.EnsureIndex("self-key", true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(record("u1", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(record("u1", 4)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("unique violation err = %v", err)
	}
	// Updating the same doc to keep its value must not violate.
	id, _ := c.Insert(record("u2", 4))
	doc, _ := c.Get(id)
	if err := c.Update(doc.Set("isDel", "1")); err != nil {
		t.Fatalf("self-update on unique index: %v", err)
	}
	// EnsureIndex(unique) over existing duplicates must fail.
	c2 := s.C("other")
	c2.Insert(record("same", 4)) //nolint:errcheck
	c2.Insert(record("same", 4)) //nolint:errcheck
	if err := c2.EnsureIndex("self-key", true); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("unique build over dups err = %v", err)
	}
}

func TestIndexMaintenanceOnUpdateDelete(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	c.EnsureIndex("self-key", false) //nolint:errcheck
	id, _ := c.Insert(record("before", 4))
	doc, _ := c.Get(id)
	if err := c.Update(doc.Set("self-key", "after")); err != nil {
		t.Fatal(err)
	}
	docs, _ := c.Find(Filter{{Key: "self-key", Value: "before"}}, FindOptions{})
	if len(docs) != 0 {
		t.Fatal("stale index entry after update")
	}
	docs, _ = c.Find(Filter{{Key: "self-key", Value: "after"}}, FindOptions{})
	if len(docs) != 1 {
		t.Fatal("index missing new value after update")
	}
	c.Delete(id) //nolint:errcheck
	docs, _ = c.Find(Filter{{Key: "self-key", Value: "after"}}, FindOptions{})
	if len(docs) != 0 {
		t.Fatal("stale index entry after delete")
	}
}

func TestClosedStore(t *testing.T) {
	s, _ := Open(Options{})
	s.Close()
	if _, err := s.C("x").Insert(record("a", 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestScratchStoreRemovesItsDirectory: a store opened without a Dir runs the
// WAL and tables in a scratch directory of its own, which Close and Crash
// remove.
func TestScratchStoreRemovesItsDirectory(t *testing.T) {
	for name, shut := range map[string]func(*Store){
		"Close": func(s *Store) { s.Close() },
		"Crash": (*Store).Crash,
	} {
		t.Run(name, func(t *testing.T) {
			s, err := Open(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.C("records").Insert(record("a", 64)); err != nil {
				t.Fatal(err)
			}
			dir := s.Dir()
			for _, sub := range []string{"wal", "tables"} {
				if _, err := os.Stat(filepath.Join(dir, sub)); err != nil {
					t.Fatalf("scratch store has no %s: %v", sub, err)
				}
			}
			shut(s)
			if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s left the scratch directory %s (stat: %v)", name, dir, err)
			}
		})
	}
}

func TestStatsTrackDataBytes(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	id, _ := c.Insert(record("a", 1000))
	before := s.Stats()
	if before.DataBytes < 1000 {
		t.Fatalf("DataBytes = %d, want >= 1000", before.DataBytes)
	}
	if before.Documents != 1 || before.Collections != 1 {
		t.Fatalf("Stats = %+v", before)
	}
	c.Delete(id) //nolint:errcheck
	if after := s.Stats(); after.Documents != 0 {
		t.Fatalf("Documents after delete = %d, want 0", after.Documents)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	c.EnsureIndex("self-key", false) //nolint:errcheck
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := c.Insert(record(fmt.Sprintf("w%d-%d", w, i), 16)); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := c.Find(Filter{{Key: "self-key", Value: "w0-50"}}, FindOptions{}); err != nil {
					t.Errorf("Find: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 800 {
		t.Fatalf("Len = %d, want 800", c.Len())
	}
}
