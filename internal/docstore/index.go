package docstore

import (
	"mystore/internal/bson"
	"mystore/internal/btree"
)

// fieldIndex is a secondary index over one (possibly dotted) field path. It
// maps the order-preserving encoding of the field value to the set of
// primary keys of documents holding that value. Documents missing the field
// are not indexed; queries that must consider them fall back to a scan.
type fieldIndex struct {
	field  string
	unique bool
	tree   *btree.Tree // EncodeKey(field value) -> map[string]struct{} of id keys
}

func newFieldIndex(field string, unique bool) *fieldIndex {
	return &fieldIndex{field: field, unique: unique, tree: btree.New()}
}

// insert adds a document's entry under idKey.
func (ix *fieldIndex) insert(idKey string, doc bson.D) {
	v, ok := lookupPath(doc, ix.field)
	if !ok {
		return
	}
	key := EncodeKey(v)
	if cur, ok := ix.tree.Get(key); ok {
		cur.(map[string]struct{})[idKey] = struct{}{}
		return
	}
	ix.tree.Set(key, map[string]struct{}{idKey: {}})
}

// wouldViolate reports whether inserting doc under idKey would break a
// unique constraint.
func (ix *fieldIndex) wouldViolate(idKey string, doc bson.D) bool {
	if !ix.unique {
		return false
	}
	v, ok := lookupPath(doc, ix.field)
	if !ok {
		return false
	}
	cur, ok := ix.tree.Get(EncodeKey(v))
	if !ok {
		return false
	}
	set := cur.(map[string]struct{})
	if len(set) == 0 {
		return false
	}
	if _, same := set[idKey]; same && len(set) == 1 {
		return false
	}
	return true
}

// remove drops a document's entry.
func (ix *fieldIndex) remove(idKey string, doc bson.D) {
	v, ok := lookupPath(doc, ix.field)
	if !ok {
		return
	}
	key := EncodeKey(v)
	cur, ok := ix.tree.Get(key)
	if !ok {
		return
	}
	set := cur.(map[string]struct{})
	delete(set, idKey)
	if len(set) == 0 {
		ix.tree.Delete(key)
	}
}

// lookupEq returns the id keys of documents whose field equals v.
func (ix *fieldIndex) lookupEq(v any) []string {
	cur, ok := ix.tree.Get(EncodeKey(v))
	if !ok {
		return nil
	}
	set := cur.(map[string]struct{})
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return out
}

// lookupRange returns id keys for field values between lo and hi, where nil
// means unbounded on that side. The result is a superset of the exact range:
// the planner always re-verifies candidates with Match, so the index may
// over-include (the lower bound stays inclusive even for $gt) but must never
// miss a matching document.
func (ix *fieldIndex) lookupRange(lo, hi any, hiIncl bool) []string {
	var loKey, hiKey []byte
	if lo != nil {
		loKey = EncodeKey(lo)
	}
	if hi != nil {
		hiKey = EncodeKey(hi)
		if hiIncl {
			hiKey = append(hiKey, 0xFF) // admit exact matches of hi
		}
	}
	var out []string
	ix.tree.AscendRange(loKey, hiKey, func(it btree.Item) bool {
		for id := range it.Value.(map[string]struct{}) {
			out = append(out, id)
		}
		return true
	})
	return out
}
