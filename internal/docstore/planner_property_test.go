package docstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mystore/internal/bson"
)

// TestPlannerEquivalenceProperty cross-checks the index-backed query path
// against brute-force Match over every document: for random data and
// random filters, Find must return exactly the documents Match admits,
// whether or not an index serves the predicate. This guards the planner's
// central contract — indexes narrow candidates but never change results.
func TestPlannerEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	kinds := []string{"scene", "video", "report", "component"}
	for trial := 0; trial < 30; trial++ {
		s, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		indexed := trial%2 == 0
		c := s.C("data")
		if indexed {
			if err := c.EnsureIndex("kind", false); err != nil {
				t.Fatal(err)
			}
			if err := c.EnsureIndex("n", false); err != nil {
				t.Fatal(err)
			}
		}
		nDocs := 50 + rng.Intn(150)
		var all []bson.D
		for i := 0; i < nDocs; i++ {
			doc := bson.D{
				{Key: "_id", Value: fmt.Sprintf("d-%04d", i)},
				{Key: "kind", Value: kinds[rng.Intn(len(kinds))]},
				{Key: "n", Value: int64(rng.Intn(40))},
			}
			if rng.Intn(4) == 0 {
				doc = append(doc, bson.E{Key: "extra", Value: "x"})
			}
			if _, err := c.Insert(doc); err != nil {
				t.Fatal(err)
			}
			all = append(all, doc)
		}
		// Random filters drawn from the supported operator set.
		filters := []Filter{
			{{Key: "kind", Value: kinds[rng.Intn(len(kinds))]}},
			{{Key: "n", Value: bson.D{{Key: "$gte", Value: int64(rng.Intn(40))}}}},
			{{Key: "n", Value: bson.D{
				{Key: "$gt", Value: int64(rng.Intn(20))},
				{Key: "$lte", Value: int64(20 + rng.Intn(20))},
			}}},
			{{Key: "kind", Value: bson.D{{Key: "$in", Value: bson.A{kinds[0], kinds[1]}}}}},
			{{Key: "extra", Value: bson.D{{Key: "$exists", Value: true}}}},
			{{Key: "kind", Value: kinds[rng.Intn(len(kinds))]},
				{Key: "n", Value: bson.D{{Key: "$lt", Value: int64(rng.Intn(40))}}}},
			{{Key: "_id", Value: fmt.Sprintf("d-%04d", rng.Intn(nDocs))}},
			{{Key: "_id", Value: bson.D{{Key: "$in", Value: bson.A{"d-0001", "d-0002", "ghost"}}}}},
			// $or over indexed fields must fall back to a scan without
			// changing results.
			{{Key: "$or", Value: bson.A{
				bson.D{{Key: "kind", Value: kinds[0]}},
				bson.D{{Key: "n", Value: bson.D{{Key: "$gte", Value: int64(35)}}}},
			}}},
			// $ne must consider documents the index never stored.
			{{Key: "kind", Value: bson.D{{Key: "$ne", Value: kinds[rng.Intn(len(kinds))]}}}},
			// Empty results: an index that finds nothing and a scan that
			// finds nothing must agree.
			{{Key: "kind", Value: "nobody"}},
			{{Key: "kind", Value: bson.D{{Key: "$in", Value: bson.A{"nobody", "no-one"}}}}},
			{{Key: "n", Value: bson.D{{Key: "$gte", Value: int64(1000)}}}},
			{{Key: "_id", Value: "ghost"}},
		}
		for fi, filter := range filters {
			got, err := c.Find(filter, FindOptions{})
			if err != nil {
				t.Fatalf("trial %d filter %d: Find: %v", trial, fi, err)
			}
			var want []string
			for _, doc := range all {
				m, err := Match(doc, filter)
				if err != nil {
					t.Fatalf("trial %d filter %d: Match: %v", trial, fi, err)
				}
				if m {
					id, _ := doc.Get("_id")
					want = append(want, id.(string))
				}
			}
			var gotIds []string
			for _, doc := range got {
				id, _ := doc.Get("_id")
				gotIds = append(gotIds, id.(string))
			}
			sort.Strings(want)
			sort.Strings(gotIds)
			if len(want) != len(gotIds) {
				t.Fatalf("trial %d filter %d (indexed=%v): Find returned %d docs, brute force %d\nfilter: %s",
					trial, fi, indexed, len(gotIds), len(want), bson.D(filter))
			}
			for i := range want {
				if want[i] != gotIds[i] {
					t.Fatalf("trial %d filter %d: result sets differ at %d: %s vs %s",
						trial, fi, i, gotIds[i], want[i])
				}
			}
		}
		s.Close()
	}
}
