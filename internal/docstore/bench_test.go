package docstore

import (
	"fmt"
	"testing"

	"mystore/internal/bson"
)

func benchCollection(b *testing.B, docs int, indexed bool) *Collection {
	b.Helper()
	s, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	c := s.C("bench")
	if indexed {
		if err := c.EnsureIndex("self-key", false); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < docs; i++ {
		if _, err := c.Insert(record(fmt.Sprintf("key-%06d", i), 128)); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func BenchmarkInsert(b *testing.B) {
	c := benchCollection(b, 0, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert(record(fmt.Sprintf("bench-%09d", i), 128)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindIndexedEquality(b *testing.B) {
	c := benchCollection(b, 10000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs, err := c.Find(Filter{{Key: "self-key", Value: fmt.Sprintf("key-%06d", i%10000)}}, FindOptions{})
		if err != nil || len(docs) != 1 {
			b.Fatalf("Find: %d docs, %v", len(docs), err)
		}
	}
}

func BenchmarkFindScanEquality(b *testing.B) {
	c := benchCollection(b, 10000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs, err := c.Find(Filter{{Key: "self-key", Value: fmt.Sprintf("key-%06d", i%10000)}}, FindOptions{})
		if err != nil || len(docs) != 1 {
			b.Fatalf("Find: %d docs, %v", len(docs), err)
		}
	}
}

func BenchmarkFindRegexScan(b *testing.B) {
	c := benchCollection(b, 2000, false)
	filter := Filter{{Key: "self-key", Value: bson.D{{Key: "$regex", Value: "^key-00001"}}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Find(filter, FindOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetByPrimaryKey(b *testing.B) {
	c := benchCollection(b, 10000, false)
	ids := make([]any, 0, 10000)
	docs, _ := c.Find(Filter{}, FindOptions{})
	for _, d := range docs {
		id, _ := d.Get("_id")
		ids = append(ids, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(ids[i%len(ids)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkMatchComplexFilter(b *testing.B) {
	doc := sampleDoc()
	filter := Filter{
		{Key: "$and", Value: bson.A{
			bson.D{{Key: "type", Value: "scene"}},
			bson.D{{Key: "size", Value: bson.D{{Key: "$gte", Value: int64(100)}, {Key: "$lt", Value: int64(200)}}}},
			bson.D{{Key: "meta.course", Value: bson.D{{Key: "$regex", Value: "^EE"}}}},
		}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := Match(doc, filter)
		if err != nil || !ok {
			b.Fatalf("Match = %v, %v", ok, err)
		}
	}
}
