package docstore

import (
	"errors"
	"testing"

	"mystore/internal/bson"
)

func mustMatch(t *testing.T, doc bson.D, filter Filter) bool {
	t.Helper()
	ok, err := Match(doc, filter)
	if err != nil {
		t.Fatalf("Match(%s, %s): %v", doc, bson.D(filter), err)
	}
	return ok
}

func sampleDoc() bson.D {
	return bson.D{
		{Key: "self-key", Value: "Resistor5"},
		{Key: "size", Value: int64(120)},
		{Key: "type", Value: "scene"},
		{Key: "tags", Value: bson.A{"physics", "circuit"}},
		{Key: "meta", Value: bson.D{{Key: "course", Value: "EE101"}}},
		{Key: "isDel", Value: "0"},
	}
}

func TestMatchImplicitEquality(t *testing.T) {
	doc := sampleDoc()
	if !mustMatch(t, doc, Filter{{Key: "self-key", Value: "Resistor5"}}) {
		t.Error("equality on string failed")
	}
	if mustMatch(t, doc, Filter{{Key: "self-key", Value: "Resistor6"}}) {
		t.Error("wrong value matched")
	}
	if mustMatch(t, doc, Filter{{Key: "absent", Value: "x"}}) {
		t.Error("absent field matched")
	}
	if !mustMatch(t, doc, Filter{}) {
		t.Error("empty filter must match")
	}
	if !mustMatch(t, doc, Filter{{Key: "size", Value: int32(120)}}) {
		t.Error("cross-numeric-type equality failed")
	}
}

func TestMatchComparisonOperators(t *testing.T) {
	doc := sampleDoc()
	cases := []struct {
		filter Filter
		want   bool
	}{
		{Filter{{Key: "size", Value: bson.D{{Key: "$gt", Value: int64(100)}}}}, true},
		{Filter{{Key: "size", Value: bson.D{{Key: "$gt", Value: int64(120)}}}}, false},
		{Filter{{Key: "size", Value: bson.D{{Key: "$gte", Value: int64(120)}}}}, true},
		{Filter{{Key: "size", Value: bson.D{{Key: "$lt", Value: int64(121)}}}}, true},
		{Filter{{Key: "size", Value: bson.D{{Key: "$lte", Value: int64(119)}}}}, false},
		{Filter{{Key: "size", Value: bson.D{{Key: "$gt", Value: int64(100)}, {Key: "$lt", Value: int64(130)}}}}, true},
		{Filter{{Key: "size", Value: bson.D{{Key: "$eq", Value: float64(120)}}}}, true},
		{Filter{{Key: "size", Value: bson.D{{Key: "$ne", Value: int64(120)}}}}, false},
		{Filter{{Key: "absent", Value: bson.D{{Key: "$ne", Value: "v"}}}}, true},     // $ne matches missing fields
		{Filter{{Key: "size", Value: bson.D{{Key: "$gt", Value: "string"}}}}, false}, // cross-type range never matches
	}
	for i, c := range cases {
		if got := mustMatch(t, doc, c.filter); got != c.want {
			t.Errorf("case %d: Match = %v, want %v", i, got, c.want)
		}
	}
}

func TestMatchInNin(t *testing.T) {
	doc := sampleDoc()
	in := Filter{{Key: "type", Value: bson.D{{Key: "$in", Value: bson.A{"video", "scene"}}}}}
	if !mustMatch(t, doc, in) {
		t.Error("$in failed")
	}
	nin := Filter{{Key: "type", Value: bson.D{{Key: "$nin", Value: bson.A{"video", "report"}}}}}
	if !mustMatch(t, doc, nin) {
		t.Error("$nin failed")
	}
	ninMiss := Filter{{Key: "absent", Value: bson.D{{Key: "$nin", Value: bson.A{"x"}}}}}
	if !mustMatch(t, doc, ninMiss) {
		t.Error("$nin on absent field should match")
	}
	if _, err := Match(doc, Filter{{Key: "type", Value: bson.D{{Key: "$in", Value: "not-array"}}}}); !errors.Is(err, ErrBadFilter) {
		t.Errorf("$in non-array: err = %v", err)
	}
}

func TestMatchExists(t *testing.T) {
	doc := sampleDoc()
	if !mustMatch(t, doc, Filter{{Key: "meta", Value: bson.D{{Key: "$exists", Value: true}}}}) {
		t.Error("$exists true failed")
	}
	if !mustMatch(t, doc, Filter{{Key: "nope", Value: bson.D{{Key: "$exists", Value: false}}}}) {
		t.Error("$exists false failed")
	}
	if _, err := Match(doc, Filter{{Key: "meta", Value: bson.D{{Key: "$exists", Value: "yes"}}}}); !errors.Is(err, ErrBadFilter) {
		t.Errorf("$exists non-bool: err = %v", err)
	}
}

func TestMatchRegex(t *testing.T) {
	doc := sampleDoc()
	if !mustMatch(t, doc, Filter{{Key: "self-key", Value: bson.D{{Key: "$regex", Value: "^Resistor[0-9]+$"}}}}) {
		t.Error("$regex failed")
	}
	if mustMatch(t, doc, Filter{{Key: "size", Value: bson.D{{Key: "$regex", Value: "1"}}}}) {
		t.Error("$regex matched a non-string")
	}
	if _, err := Match(doc, Filter{{Key: "self-key", Value: bson.D{{Key: "$regex", Value: "("}}}}); !errors.Is(err, ErrBadFilter) {
		t.Errorf("bad pattern: err = %v", err)
	}
}

func TestMatchSize(t *testing.T) {
	doc := sampleDoc()
	if !mustMatch(t, doc, Filter{{Key: "tags", Value: bson.D{{Key: "$size", Value: int32(2)}}}}) {
		t.Error("$size failed")
	}
	if mustMatch(t, doc, Filter{{Key: "tags", Value: bson.D{{Key: "$size", Value: int32(3)}}}}) {
		t.Error("$size wrong count matched")
	}
	if _, err := Match(doc, Filter{{Key: "tags", Value: bson.D{{Key: "$size", Value: "2"}}}}); !errors.Is(err, ErrBadFilter) {
		t.Errorf("$size non-number: err = %v", err)
	}
}

func TestMatchLogicalOperators(t *testing.T) {
	doc := sampleDoc()
	and := Filter{{Key: "$and", Value: bson.A{
		bson.D{{Key: "type", Value: "scene"}},
		bson.D{{Key: "size", Value: bson.D{{Key: "$gt", Value: int64(100)}}}},
	}}}
	if !mustMatch(t, doc, and) {
		t.Error("$and failed")
	}
	or := Filter{{Key: "$or", Value: bson.A{
		bson.D{{Key: "type", Value: "video"}},
		bson.D{{Key: "type", Value: "scene"}},
	}}}
	if !mustMatch(t, doc, or) {
		t.Error("$or failed")
	}
	nor := Filter{{Key: "$nor", Value: bson.A{
		bson.D{{Key: "type", Value: "video"}},
		bson.D{{Key: "type", Value: "report"}},
	}}}
	if !mustMatch(t, doc, nor) {
		t.Error("$nor failed")
	}
	notOp := Filter{{Key: "size", Value: bson.D{{Key: "$not", Value: bson.D{{Key: "$lt", Value: int64(100)}}}}}}
	if !mustMatch(t, doc, notOp) {
		t.Error("$not failed")
	}
	for _, bad := range []Filter{
		{{Key: "$and", Value: "x"}},
		{{Key: "$or", Value: bson.A{"not-a-doc"}}},
		{{Key: "$unknown", Value: bson.A{}}},
		{{Key: "size", Value: bson.D{{Key: "$bogus", Value: int64(1)}}}},
		{{Key: "size", Value: bson.D{{Key: "$not", Value: "x"}}}},
	} {
		if _, err := Match(doc, bad); err == nil {
			t.Errorf("malformed filter %v accepted", bson.D(bad))
		}
	}
}

func TestMatchDottedPath(t *testing.T) {
	doc := sampleDoc()
	if !mustMatch(t, doc, Filter{{Key: "meta.course", Value: "EE101"}}) {
		t.Error("dotted equality failed")
	}
	if mustMatch(t, doc, Filter{{Key: "meta.course", Value: "CS101"}}) {
		t.Error("dotted equality false positive")
	}
}

func TestMatchEmbeddedDocEquality(t *testing.T) {
	doc := sampleDoc()
	// A plain embedded document without $-keys is an equality operand.
	if !mustMatch(t, doc, Filter{{Key: "meta", Value: bson.D{{Key: "course", Value: "EE101"}}}}) {
		t.Error("whole-document equality failed")
	}
}

func TestSortDocs(t *testing.T) {
	docs := []bson.D{
		{{Key: "n", Value: int64(3)}, {Key: "s", Value: "b"}},
		{{Key: "n", Value: int64(1)}, {Key: "s", Value: "c"}},
		{{Key: "n", Value: int64(3)}, {Key: "s", Value: "a"}},
		{{Key: "n", Value: int64(2)}, {Key: "s", Value: "d"}},
	}
	sortDocs(docs, []SortField{{Field: "n", Desc: false}, {Field: "s", Desc: true}})
	gotN := []int64{}
	gotS := []string{}
	for _, d := range docs {
		n, _ := d.Get("n")
		s, _ := d.Get("s")
		gotN = append(gotN, n.(int64))
		gotS = append(gotS, s.(string))
	}
	wantN := []int64{1, 2, 3, 3}
	wantS := []string{"c", "d", "b", "a"}
	for i := range wantN {
		if gotN[i] != wantN[i] || gotS[i] != wantS[i] {
			t.Fatalf("sorted = %v/%v, want %v/%v", gotN, gotS, wantN, wantS)
		}
	}
}

func TestApplyWindow(t *testing.T) {
	docs := make([]bson.D, 10)
	for i := range docs {
		docs[i] = bson.D{{Key: "i", Value: int64(i)}}
	}
	if got := applyWindow(docs, 2, 3); len(got) != 3 {
		t.Fatalf("window(2,3) len = %d", len(got))
	} else if v, _ := got[0].Get("i"); v != int64(2) {
		t.Fatalf("window(2,3)[0] = %v", v)
	}
	if got := applyWindow(docs, 20, 0); got != nil {
		t.Fatalf("skip past end should be empty, got %d", len(got))
	}
	if got := applyWindow(docs, 0, 0); len(got) != 10 {
		t.Fatalf("no window should keep all, got %d", len(got))
	}
}

func TestProject(t *testing.T) {
	doc := bson.D{
		{Key: "_id", Value: "id1"},
		{Key: "a", Value: int64(1)},
		{Key: "b", Value: int64(2)},
	}
	p := project(doc, []string{"b"})
	if len(p) != 2 || !has(p, "_id") || !has(p, "b") || has(p, "a") {
		t.Fatalf("project = %s", p)
	}
	if got := project(doc, nil); len(got) != 3 {
		t.Fatal("empty projection should keep all fields")
	}
}

// has reports whether key is present in d.
func has(d bson.D, key string) bool {
	_, ok := d.Get(key)
	return ok
}
