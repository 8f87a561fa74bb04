package docstore

import (
	"fmt"
	"sort"

	"mystore/internal/bson"
)

// A small aggregation facility in the spirit of MongoDB's group stage —
// part of the "complex query functions" the paper keeps from MongoDB that
// key-value stores give up. A GroupSpec names a grouping field and a set
// of accumulators; GroupDocuments groups and reduces in one pass.

// Accumulator kinds.
const (
	AccCount = "$count" // number of documents in the group
	AccSum   = "$sum"   // sum of a numeric field
	AccAvg   = "$avg"   // mean of a numeric field
	AccMin   = "$min"   // minimum value of a field (canonical order)
	AccMax   = "$max"   // maximum value of a field
)

// AccumulatorSpec is one output of a group: Name in the result document,
// Op one of the Acc* kinds, Field the input field ($count ignores it).
type AccumulatorSpec struct {
	Name  string
	Op    string
	Field string
}

// GroupSpec describes an aggregation.
type GroupSpec struct {
	// By is the grouping field path; documents missing it group under nil.
	By string
	// Accumulators compute the group outputs.
	Accumulators []AccumulatorSpec
}

// ErrBadAggregate reports a malformed group specification.
var ErrBadAggregate = fmt.Errorf("docstore: malformed aggregation")

type groupState struct {
	key    any
	count  int64
	sums   map[string]float64
	sumInt map[string]bool // whether every summed value so far was integral
	avgN   map[string]int64
	mins   map[string]any
	maxs   map[string]any
}

// validateSpec checks a group specification.
func validateSpec(spec GroupSpec) error {
	for _, acc := range spec.Accumulators {
		switch acc.Op {
		case AccCount, AccSum, AccAvg, AccMin, AccMax:
		default:
			return fmt.Errorf("%w: unknown accumulator %q", ErrBadAggregate, acc.Op)
		}
		if acc.Name == "" {
			return fmt.Errorf("%w: accumulator without a name", ErrBadAggregate)
		}
		if acc.Op != AccCount && acc.Field == "" {
			return fmt.Errorf("%w: %s requires a field", ErrBadAggregate, acc.Op)
		}
	}
	return nil
}

// GroupDocuments groups and reduces an in-memory document slice. The
// cluster's distributed aggregation runs it over the deduplicated documents
// it merged from every node.
func GroupDocuments(docs []bson.D, spec GroupSpec) ([]bson.D, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	groups := map[string]*groupState{}
	for _, doc := range docs {
		key, _ := lookupPath(doc, spec.By)
		gk := string(EncodeKey(key))
		g, ok := groups[gk]
		if !ok {
			g = &groupState{
				key:    key,
				sums:   map[string]float64{},
				sumInt: map[string]bool{},
				avgN:   map[string]int64{},
				mins:   map[string]any{},
				maxs:   map[string]any{},
			}
			groups[gk] = g
		}
		g.count++
		for _, acc := range spec.Accumulators {
			switch acc.Op {
			case AccSum, AccAvg:
				v, ok := lookupPath(doc, acc.Field)
				if !ok {
					continue
				}
				f, isNum := numeric(v)
				if !isNum {
					return nil, fmt.Errorf("%w: %s over non-numeric field %q", ErrBadAggregate, acc.Op, acc.Field)
				}
				if _, seen := g.sumInt[acc.Name]; !seen {
					g.sumInt[acc.Name] = true
				}
				if _, isFloat := v.(float64); isFloat {
					g.sumInt[acc.Name] = false
				}
				g.sums[acc.Name] += f
				g.avgN[acc.Name]++
			case AccMin:
				if v, ok := lookupPath(doc, acc.Field); ok {
					if cur, seen := g.mins[acc.Name]; !seen || Compare(v, cur) < 0 {
						g.mins[acc.Name] = v
					}
				}
			case AccMax:
				if v, ok := lookupPath(doc, acc.Field); ok {
					if cur, seen := g.maxs[acc.Name]; !seen || Compare(v, cur) > 0 {
						g.maxs[acc.Name] = v
					}
				}
			}
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys) // EncodeKey order == canonical value order
	out := make([]bson.D, 0, len(groups))
	for _, gk := range keys {
		g := groups[gk]
		row := bson.D{{Key: "_id", Value: g.key}}
		for _, acc := range spec.Accumulators {
			switch acc.Op {
			case AccCount:
				row = append(row, bson.E{Key: acc.Name, Value: g.count})
			case AccSum:
				if g.sumInt[acc.Name] {
					row = append(row, bson.E{Key: acc.Name, Value: int64(g.sums[acc.Name])})
				} else {
					row = append(row, bson.E{Key: acc.Name, Value: g.sums[acc.Name]})
				}
			case AccAvg:
				if n := g.avgN[acc.Name]; n > 0 {
					row = append(row, bson.E{Key: acc.Name, Value: g.sums[acc.Name] / float64(n)})
				} else {
					row = append(row, bson.E{Key: acc.Name, Value: nil})
				}
			case AccMin:
				row = append(row, bson.E{Key: acc.Name, Value: g.mins[acc.Name]})
			case AccMax:
				row = append(row, bson.E{Key: acc.Name, Value: g.maxs[acc.Name]})
			}
		}
		out = append(out, row)
	}
	return out, nil
}
