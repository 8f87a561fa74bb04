package docstore

import (
	"path/filepath"
	"testing"

	"mystore/internal/bson"
	"mystore/internal/wal"
)

// legacyWAL is a log as the previous write path left it: "insert", "update",
// "delete" and "index" records in that encoder's field layout (op, coll, then
// doc | id | field+unique). It includes the two cases that needed a relaxed
// replay mode then — an insert over an existing document and an update of a
// missing one, both of which a checkpoint running ahead of replay can produce.
func legacyWAL(tb testing.TB) [][]byte {
	tb.Helper()
	op := func(kind, coll string, rest ...bson.E) bson.D {
		return append(bson.D{{Key: "op", Value: kind}, {Key: "coll", Value: coll}}, rest...)
	}
	doc := func(id any, selfKey string, n int64) bson.E {
		return bson.E{Key: "doc", Value: bson.D{
			{Key: "_id", Value: id}, {Key: "self-key", Value: selfKey}, {Key: "n", Value: n},
		}}
	}
	var recs [][]byte
	for _, d := range []bson.D{
		op("index", "records", bson.E{Key: "field", Value: "self-key"}, bson.E{Key: "unique", Value: true}),
		op("insert", "records", doc("a", "ka", 1)),
		op("insert", "records", doc("b", "kb", 1)),
		op("update", "records", doc("a", "ka2", 2)),
		op("delete", "records", bson.E{Key: "id", Value: "b"}),
		op("delete", "records", bson.E{Key: "id", Value: "never-there"}),
		op("update", "records", doc("d", "kd", 4)), // update of a missing document
		op("insert", "hints", doc(int64(7), "h", 1)),
		op("insert", "hints", doc(int64(7), "h", 2)), // insert over an existing one
	} {
		rec, err := bson.Marshal(d)
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestReplayLegacyWAL: a log written before the WAL recorded effects reopens
// to the documents and indexes it describes.
func TestReplayLegacyWAL(t *testing.T) {
	t.Run("lsm", func(t *testing.T) {
		dir := t.TempDir()
		log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		recs := legacyWAL(t)
		for _, rec := range recs {
			if _, err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		s, err := Open(Options{Dir: dir, Storage: testTuning()})
		if err != nil {
			t.Fatalf("open over a legacy log: %v", err)
		}
		defer s.Close()
		if got := s.ReplayedOps(); got != uint64(len(recs)) {
			t.Fatalf("replayed %d records, want %d", got, len(recs))
		}
		got := contents(s)
		want := map[string]map[string]int64{
			"records": {"a": 2, "d": 4},
			"hints":   {"7": 2},
		}
		if len(got) != len(want) {
			t.Fatalf("collections = %v", s.collections())
		}
		for coll, docs := range want {
			if len(got[coll]) != len(docs) {
				t.Fatalf("%s holds %d documents, want %d: %v", coll, len(got[coll]), len(docs), got[coll])
			}
			for id, n := range docs {
				if v, _ := got[coll][id].Get("n"); v != n {
					t.Fatalf("%s/%s = %v, want n=%d", coll, id, got[coll][id], n)
				}
			}
		}

		// The index came back, follows the update, and still guards.
		c := s.C("records")
		before := s.Stats()
		for selfKey, hits := range map[string]int{"ka2": 1, "kd": 1, "ka": 0, "kb": 0} {
			docs, err := c.Find(Filter{{Key: "self-key", Value: selfKey}}, FindOptions{})
			if err != nil || len(docs) != hits {
				t.Fatalf("Find self-key=%s: %d documents, %v; want %d", selfKey, len(docs), err, hits)
			}
		}
		if after := s.Stats(); after.Scans != before.Scans {
			t.Fatal("lookups on the replayed index scanned")
		}
		if _, err := c.Insert(bson.D{{Key: "_id", Value: "e"}, {Key: "self-key", Value: "kd"}}); err == nil {
			t.Fatal("replayed unique index admitted a colliding insert")
		}
	})
}

// FuzzReplayRecord pushes arbitrary bytes down the replay path — Unmarshal,
// decodeOp, redo onto a scratch store. A record is refused with an error or
// applies cleanly; nothing a log can hold may panic an opening store.
func FuzzReplayRecord(f *testing.F) {
	for _, rec := range legacyWAL(f) {
		f.Add(rec)
	}
	for _, d := range []bson.D{
		{{Key: "op", Value: "put"}, {Key: "coll", Value: "c"}, {Key: "doc", Value: bson.D{{Key: "_id", Value: "x"}, {Key: "v", Value: int64(1)}}}},
		{{Key: "op", Value: "put"}, {Key: "coll", Value: "c"}, {Key: "doc", Value: bson.D{{Key: "v", Value: int64(1)}}}},    // no _id
		{{Key: "op", Value: "put"}, {Key: "coll", Value: "c"}, {Key: "doc", Value: bson.D{{Key: "_id", Value: 1.5}}}},       // unsupported _id type
		{{Key: "op", Value: "put"}, {Key: "coll", Value: "c"}, {Key: "doc", Value: "not a document"}},                       // non-document doc
		{{Key: "op", Value: "put"}, {Key: "coll", Value: "c"}},                                                              // no doc at all
		{{Key: "op", Value: "delete"}, {Key: "coll", Value: "c"}},                                                           // no id
		{{Key: "op", Value: "delete"}, {Key: "coll", Value: "c"}, {Key: "id", Value: bson.A{"x"}}},                          // unsupported id type
		{{Key: "op", Value: "index"}, {Key: "coll", Value: "c"}, {Key: "field", Value: "a.b"}, {Key: "unique", Value: "1"}}, // non-bool flag
		{{Key: "op", Value: "dropcoll"}, {Key: "coll", Value: "c"}},
		{{Key: "op", Value: "compact"}, {Key: "coll", Value: "c"}}, // unknown kind
		{{Key: "coll", Value: "c"}}, // no kind
		{{Key: "op", Value: "put"}, {Key: "doc", Value: bson.D{{Key: "_id", Value: "x"}}}},                                // no coll: its keys would be metadata
		{{Key: "op", Value: "put"}, {Key: "coll", Value: "c\x00"}, {Key: "doc", Value: bson.D{{Key: "_id", Value: "x"}}}}, // 0x00 in coll
	} {
		rec, err := bson.Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoding touches no store, so a record it refuses opens none.
		doc, err := bson.Unmarshal(data)
		if err != nil {
			return
		}
		op, err := decodeOp(doc)
		if err != nil {
			return
		}
		s, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Something for the record to land on: a document and a unique index.
		c := s.C("c")
		if err := c.EnsureIndex("v", true); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Insert(bson.D{{Key: "_id", Value: "x"}, {Key: "v", Value: int64(0)}}); err != nil {
			t.Fatal(err)
		}
		if err := s.replayOp(op, 0); err != nil {
			return
		}
		// It applied: the store still answers, and twice is the same as once.
		before := contents(s)
		if err := s.replayOp(op, 0); err != nil {
			t.Fatalf("redoing an applied %q record failed: %v", op.Kind, err)
		}
		after := contents(s)
		if len(before) != len(after) {
			t.Fatalf("redo changed the collection set: %d -> %d", len(before), len(after))
		}
		for name, docs := range before {
			if len(after[name]) != len(docs) {
				t.Fatalf("redo changed %s: %d -> %d documents", name, len(docs), len(after[name]))
			}
		}
	})
}
