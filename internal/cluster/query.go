package cluster

import (
	"context"
	"strings"
	"sync"

	"mystore/internal/bson"
	"mystore/internal/docstore"
	"mystore/internal/nwr"
)

// Distributed queries: the feature MyStore keeps from MongoDB that Dynamo
// and Cassandra lack (paper §2). A record's value may be a BSON document;
// Query scatters a filter to every ring member, each node matches its local
// records (against the record fields and, when the value decodes as BSON,
// the embedded document), and the coordinator merges answers last-write-
// wins, drops tombstones, then sorts and windows the result.

// QueryResult is one record matched by a distributed query.
type QueryResult struct {
	Key string
	Doc bson.D // decoded value document; nil when the value is opaque bytes
	Val []byte // raw value bytes
}

// handleQuery serves MsgQuery: scatter to the ring members, merge, shape.
func (n *Node) handleQuery(ctx context.Context, body bson.D) (bson.D, error) {
	filter, opts, err := decodeQuery(body)
	if err != nil {
		return nil, err
	}
	results, err := n.Query(ctx, filter, opts)
	if err != nil {
		return nil, err
	}
	arr := make(bson.A, len(results))
	for i, r := range results {
		entry := bson.D{{Key: "self-key", Value: r.Key}, {Key: "val", Value: r.Val}}
		if r.Doc != nil {
			entry = append(entry, bson.E{Key: "doc", Value: r.Doc})
		}
		arr[i] = entry
	}
	return bson.D{{Key: "results", Value: arr}}, nil
}

// Query runs a distributed query from this node.
func (n *Node) Query(ctx context.Context, filter docstore.Filter, opts docstore.FindOptions) ([]QueryResult, error) {
	targets := n.members()
	shards := make([][]nwr.Record, len(targets))
	var wg sync.WaitGroup
	reqBody := encodeQuery(filter, docstore.FindOptions{}) // shaping happens after merge
	for i, target := range targets {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			if target == n.Addr() {
				shards[i], _ = n.queryLocal(filter)
				return
			}
			if resp, err := n.coord.CallPeer(ctx, target, MsgQueryLocal, reqBody); err == nil {
				shards[i], _ = nwr.RecordList(resp)
			}
		}(i, target)
	}
	wg.Wait()

	// Merge newest-wins by key; unreachable or refused shards degrade
	// coverage, they do not fail the query (availability first).
	newest := map[string]nwr.Record{}
	for _, recs := range shards {
		for _, rec := range recs {
			if cur, ok := newest[rec.Key]; !ok || rec.Newer(cur) {
				newest[rec.Key] = rec
			}
		}
	}
	merged := make([]bson.D, 0, len(newest))
	byKey := map[string]nwr.Record{}
	for key, rec := range newest {
		if rec.Deleted {
			continue
		}
		byKey[key] = rec
		merged = append(merged, queryView(rec))
	}
	docstore.SortDocuments(merged, opts.Sort)
	merged = docstore.WindowDocuments(merged, opts.Skip, opts.Limit)

	out := make([]QueryResult, 0, len(merged))
	for _, view := range merged {
		key := view.StringOr("self-key", "")
		rec := byKey[key]
		r := QueryResult{Key: key, Val: rec.Val}
		if doc, err := bson.Unmarshal(rec.Val); err == nil {
			r.Doc = doc
		}
		out = append(out, r)
	}
	return out, nil
}

// Aggregate runs a distributed aggregation: a deduplicated distributed
// query collects the matching records (newest version per key, tombstones
// dropped), then the filter view of each record is grouped and reduced.
// Filters and group fields use the same paths Query exposes ("self-key",
// "size", "doc.<field>").
func (n *Node) Aggregate(ctx context.Context, filter docstore.Filter, spec docstore.GroupSpec) ([]bson.D, error) {
	results, err := n.Query(ctx, filter, docstore.FindOptions{})
	if err != nil {
		return nil, err
	}
	views := make([]bson.D, len(results))
	for i, r := range results {
		rec := nwr.Record{Key: r.Key, Val: r.Val, IsData: true}
		views[i] = queryView(rec)
	}
	return docstore.GroupDocuments(views, spec)
}

// handleAggregate serves MsgAggregate.
func (n *Node) handleAggregate(ctx context.Context, body bson.D) (bson.D, error) {
	filter, _, err := decodeQuery(body)
	if err != nil {
		return nil, err
	}
	spec := docstore.GroupSpec{By: body.StringOr("by", "")}
	if v, ok := body.Get("accs"); ok {
		if arr, isArr := v.(bson.A); isArr {
			for _, e := range arr {
				d, isDoc := e.(bson.D)
				if !isDoc {
					continue
				}
				spec.Accumulators = append(spec.Accumulators, docstore.AccumulatorSpec{
					Name:  d.StringOr("name", ""),
					Op:    d.StringOr("op", ""),
					Field: d.StringOr("field", ""),
				})
			}
		}
	}
	rows, err := n.Aggregate(ctx, filter, spec)
	if err != nil {
		return nil, err
	}
	arr := make(bson.A, len(rows))
	for i, r := range rows {
		arr[i] = r
	}
	return bson.D{{Key: "rows", Value: arr}}, nil
}

// handleQueryLocal serves MsgQueryLocal: match this node's records only.
func (n *Node) handleQueryLocal(body bson.D) (bson.D, error) {
	filter, _, err := decodeQuery(body)
	if err != nil {
		return nil, err
	}
	recs, err := n.queryLocal(filter)
	if err != nil {
		return nil, err
	}
	arr := make(bson.A, len(recs))
	for i, rec := range recs {
		arr[i] = rec.ToDoc()
	}
	return bson.D{{Key: "records", Value: arr}}, nil
}

// queryLocal matches filter against local records. The filter sees a view
// with the record's self-key, isData and isDel fields plus the decoded
// value document under "doc" (so filters can reach stored fields as
// "doc.field"). Keys containing NUL are reserved for internal records
// (large-object chunks) and never surface in queries.
func (n *Node) queryLocal(filter docstore.Filter) ([]nwr.Record, error) {
	docs, err := n.store.C(nwr.RecordCollection).Find(docstore.Filter{}, docstore.FindOptions{})
	if err != nil {
		return nil, err
	}
	var out []nwr.Record
	for _, doc := range docs {
		rec, err := nwr.RecordFromDoc(doc)
		if err != nil {
			continue
		}
		if strings.ContainsRune(rec.Key, 0) {
			continue // internal key (e.g. a large-object chunk)
		}
		match, err := docstore.Match(queryView(rec), filter)
		if err != nil {
			return nil, err
		}
		if match {
			out = append(out, rec)
		}
	}
	return out, nil
}

// queryView is the document a filter matches against for a record: its
// document form with the value replaced by its size, plus the decoded value
// document under "doc".
func queryView(rec nwr.Record) bson.D {
	view := append(rec.ToDoc().Delete("val"), bson.E{Key: "size", Value: int64(len(rec.Val))})
	if doc, err := bson.Unmarshal(rec.Val); err == nil {
		view = append(view, bson.E{Key: "doc", Value: doc})
	}
	return view
}

// --- wire encoding for query requests/responses ---

func encodeQuery(filter docstore.Filter, opts docstore.FindOptions) bson.D {
	sortArr := make(bson.A, len(opts.Sort))
	for i, s := range opts.Sort {
		sortArr[i] = bson.D{{Key: "field", Value: s.Field}, {Key: "desc", Value: s.Desc}}
	}
	projArr := make(bson.A, len(opts.Projection))
	for i, p := range opts.Projection {
		projArr[i] = p
	}
	return bson.D{
		{Key: "filter", Value: bson.D(filter)},
		{Key: "sort", Value: sortArr},
		{Key: "skip", Value: int64(opts.Skip)},
		{Key: "limit", Value: int64(opts.Limit)},
		{Key: "projection", Value: projArr},
	}
}

func decodeQuery(body bson.D) (docstore.Filter, docstore.FindOptions, error) {
	var filter docstore.Filter
	if v, ok := body.Get("filter"); ok {
		if d, isDoc := v.(bson.D); isDoc {
			filter = docstore.Filter(d)
		}
	}
	opts := docstore.FindOptions{}
	if v, ok := body.Get("sort"); ok {
		if arr, isArr := v.(bson.A); isArr {
			for _, e := range arr {
				if d, isDoc := e.(bson.D); isDoc {
					desc, _ := d.Get("desc")
					descB, _ := desc.(bool)
					opts.Sort = append(opts.Sort, docstore.SortField{
						Field: d.StringOr("field", ""),
						Desc:  descB,
					})
				}
			}
		}
	}
	if v, ok := body.Get("skip"); ok {
		if i, isInt := v.(int64); isInt {
			opts.Skip = int(i)
		}
	}
	if v, ok := body.Get("limit"); ok {
		if i, isInt := v.(int64); isInt {
			opts.Limit = int(i)
		}
	}
	if v, ok := body.Get("projection"); ok {
		if arr, isArr := v.(bson.A); isArr {
			for _, e := range arr {
				if s, isStr := e.(string); isStr {
					opts.Projection = append(opts.Projection, s)
				}
			}
		}
	}
	return filter, opts, nil
}
