package docstore

import (
	"testing"

	"mystore/internal/bson"
)

func TestDistinct(t *testing.T) {
	s := scratchStore(t)
	c := s.C("items")
	for i := 0; i < 12; i++ {
		c.Insert(bson.D{ //nolint:errcheck
			{Key: "kind", Value: []string{"scene", "video", "report"}[i%3]},
			{Key: "n", Value: int64(i % 4)},
		})
	}
	c.Insert(bson.D{{Key: "other", Value: "no kind field"}}) //nolint:errcheck

	kinds, err := c.Distinct("kind", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 3 {
		t.Fatalf("Distinct(kind) = %v", kinds)
	}
	// Value order: strings sort lexically.
	if kinds[0] != "report" || kinds[1] != "scene" || kinds[2] != "video" {
		t.Fatalf("Distinct order = %v", kinds)
	}

	ns, err := c.Distinct("n", Filter{{Key: "kind", Value: "scene"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 4 {
		t.Fatalf("Distinct(n | scene) = %v", ns)
	}
	prev := int64(-1)
	for _, v := range ns {
		n := v.(int64)
		if n <= prev {
			t.Fatalf("Distinct numeric order = %v", ns)
		}
		prev = n
	}

	empty, err := c.Distinct("missing-everywhere", nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("Distinct(absent) = %v, %v", empty, err)
	}
	if _, err := c.Distinct("kind", Filter{{Key: "x", Value: bson.D{{Key: "$bogus", Value: 1}}}}); err == nil {
		t.Fatal("bad filter accepted")
	}
}

func TestDistinctDottedPath(t *testing.T) {
	s := scratchStore(t)
	c := s.C("items")
	for _, course := range []string{"EE101", "EE102", "EE101"} {
		c.Insert(bson.D{{Key: "meta", Value: bson.D{{Key: "course", Value: course}}}}) //nolint:errcheck
	}
	courses, err := c.Distinct("meta.course", nil)
	if err != nil || len(courses) != 2 {
		t.Fatalf("Distinct(meta.course) = %v, %v", courses, err)
	}
}
