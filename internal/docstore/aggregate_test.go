package docstore

import (
	"errors"
	"testing"

	"mystore/internal/bson"
)

// aggregate filters c and groups the matches, as the cluster's distributed
// aggregation does over the documents it gathered.
func aggregate(c *Collection, filter Filter, spec GroupSpec) ([]bson.D, error) {
	docs, err := c.Find(filter, FindOptions{})
	if err != nil {
		return nil, err
	}
	return GroupDocuments(docs, spec)
}

func aggFixture(t *testing.T) *Collection {
	t.Helper()
	s := scratchStore(t)
	c := s.C("assets")
	rows := []struct {
		kind  string
		bytes int64
		score float64
	}{
		{"scene", 100, 1.0},
		{"scene", 300, 2.0},
		{"video", 5000, 3.0},
		{"video", 7000, 5.0},
		{"video", 3000, 1.0},
		{"report", 50, 4.0},
	}
	for i, r := range rows {
		c.Insert(bson.D{ //nolint:errcheck
			{Key: "_id", Value: int64(i)},
			{Key: "kind", Value: r.kind},
			{Key: "bytes", Value: r.bytes},
			{Key: "score", Value: r.score},
		})
	}
	return c
}

func TestAggregateGroupCountSum(t *testing.T) {
	c := aggFixture(t)
	rows, err := aggregate(c, nil, GroupSpec{
		By: "kind",
		Accumulators: []AccumulatorSpec{
			{Name: "n", Op: AccCount},
			{Name: "total", Op: AccSum, Field: "bytes"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(rows))
	}
	// Groups are ordered by value: report < scene < video.
	wantOrder := []string{"report", "scene", "video"}
	wantN := []int64{1, 2, 3}
	wantTotal := []int64{50, 400, 15000}
	for i, row := range rows {
		id, _ := row.Get("_id")
		n, _ := row.Get("n")
		total, _ := row.Get("total")
		if id != wantOrder[i] || n != wantN[i] || total != wantTotal[i] {
			t.Fatalf("row %d = %s, want %s/%d/%d", i, row, wantOrder[i], wantN[i], wantTotal[i])
		}
	}
}

func TestAggregateAvgMinMax(t *testing.T) {
	c := aggFixture(t)
	rows, err := aggregate(c, Filter{{Key: "kind", Value: "video"}}, GroupSpec{
		By: "kind",
		Accumulators: []AccumulatorSpec{
			{Name: "avgScore", Op: AccAvg, Field: "score"},
			{Name: "minB", Op: AccMin, Field: "bytes"},
			{Name: "maxB", Op: AccMax, Field: "bytes"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("groups = %d", len(rows))
	}
	avg, _ := rows[0].Get("avgScore")
	if avg != 3.0 {
		t.Errorf("avgScore = %v", avg)
	}
	if v, _ := rows[0].Get("minB"); v != int64(3000) {
		t.Errorf("minB = %v", v)
	}
	if v, _ := rows[0].Get("maxB"); v != int64(7000) {
		t.Errorf("maxB = %v", v)
	}
}

func TestAggregateFloatSum(t *testing.T) {
	c := aggFixture(t)
	rows, err := aggregate(c, nil, GroupSpec{
		By:           "kind",
		Accumulators: []AccumulatorSpec{{Name: "s", Op: AccSum, Field: "score"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if _, isFloat := func() (any, bool) { v, _ := row.Get("s"); _, f := v.(float64); return v, f }(); !isFloat {
			t.Fatalf("float field sum should stay float: %s", row)
		}
	}
}

func TestAggregateMissingGroupField(t *testing.T) {
	s := scratchStore(t)
	c := s.C("x")
	c.Insert(bson.D{{Key: "a", Value: int64(1)}})                             //nolint:errcheck
	c.Insert(bson.D{{Key: "a", Value: int64(2)}, {Key: "g", Value: "named"}}) //nolint:errcheck
	rows, err := aggregate(c, nil, GroupSpec{
		By:           "g",
		Accumulators: []AccumulatorSpec{{Name: "n", Op: AccCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d, want 2 (nil group + named)", len(rows))
	}
	// nil sorts first in the canonical order.
	if id, _ := rows[0].Get("_id"); id != nil {
		t.Fatalf("first group = %v, want nil", id)
	}
}

func TestAggregateErrors(t *testing.T) {
	c := aggFixture(t)
	cases := []GroupSpec{
		{By: "kind", Accumulators: []AccumulatorSpec{{Name: "x", Op: "$median", Field: "bytes"}}},
		{By: "kind", Accumulators: []AccumulatorSpec{{Name: "", Op: AccCount}}},
		{By: "kind", Accumulators: []AccumulatorSpec{{Name: "x", Op: AccSum}}},
	}
	for i, spec := range cases {
		if _, err := aggregate(c, nil, spec); !errors.Is(err, ErrBadAggregate) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
	// Summing a non-numeric field.
	if _, err := aggregate(c, nil, GroupSpec{
		By:           "kind",
		Accumulators: []AccumulatorSpec{{Name: "x", Op: AccSum, Field: "kind"}},
	}); !errors.Is(err, ErrBadAggregate) {
		t.Errorf("non-numeric sum err = %v", err)
	}
	// Bad filter propagates.
	if _, err := aggregate(c, Filter{{Key: "x", Value: bson.D{{Key: "$bogus", Value: 1}}}},
		GroupSpec{By: "kind", Accumulators: []AccumulatorSpec{{Name: "n", Op: AccCount}}}); err == nil {
		t.Error("bad filter accepted")
	}
}

func TestAggregateEmptyCollection(t *testing.T) {
	s := scratchStore(t)
	rows, err := aggregate(s.C("empty"), nil, GroupSpec{
		By:           "kind",
		Accumulators: []AccumulatorSpec{{Name: "n", Op: AccCount}},
	})
	if err != nil || len(rows) != 0 {
		t.Fatalf("Aggregate on empty = %v, %v", rows, err)
	}
}
