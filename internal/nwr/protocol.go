package nwr

// The record protocol between replicas. Every record that moves between two
// nodes — a quorum write, a quorum read, read repair, hint writeback,
// anti-entropy, rebalance and consensus snapshot catch-up — moves as one of
// two messages:
//
//	nwr.put.replica {records: [record, ...]}   → {applied}
//	nwr.get.replica {keys: [key, ...], digest?} → {records: [...], consumed}
//
// A put applies its records in order, last-write-wins, and stops at the
// first that fails. A put that applied nothing fails; one that stopped part
// way answers the applied prefix, so the sender credits exactly what the
// replica stored and resends the rest. An ack for a whole batch therefore
// always means every record in it is on the replica. A get answers the
// records it holds for a prefix of the keys, stopping before transferBytes
// would be exceeded (the first record always goes in, so every answer makes
// progress); consumed counts the keys answered, found or not, and is where
// the caller resumes. In digest form the records come back without their
// values: version, origin and tombstone are enough to decide whether a
// record needs to move.

import (
	"context"
	"errors"
	"fmt"

	"mystore/internal/bson"
	"mystore/internal/trace"
)

// transferBytes bounds one batch WriteRecords sends and one nwr.get.replica
// response: big enough to amortize the per-message overhead for small
// records, small enough that one message never holds the wire for long.
const transferBytes = 256 << 10

// maxReadKeys bounds the keys named in one nwr.get.replica request, so a
// long key list is not re-sent whole with every resumed response.
const maxReadKeys = 1024

// wireSize approximates one record's on-wire footprint: payload plus
// per-field BSON overhead. It only has to be proportionally right — both
// bounds consume it consistently.
func wireSize(rec Record) int {
	return len(rec.Key) + len(rec.Val) + len(rec.Origin) + 64
}

// putReplica applies recs on target — one nwr.put.replica, or the local
// store when target is this node — in order, stopping at the first record
// that fails. It returns how many leading records target applied, and an
// error unless that is all of them.
func (c *Coordinator) putReplica(ctx context.Context, target string, recs []Record) (applied int, err error) {
	if target == c.self {
		for _, rec := range recs {
			if err := c.ApplyLocalCtx(ctx, rec); err != nil {
				return applied, err
			}
			applied++
		}
		return applied, nil
	}
	if c.Live != nil && !c.Live(target) {
		return 0, fmt.Errorf("nwr: %s believed down", target)
	}
	docs := make(bson.A, len(recs))
	for i, rec := range recs {
		docs[i] = rec.ToDoc()
	}
	resp, err := c.CallPeer(ctx, target, MsgPutReplica, bson.D{{Key: "records", Value: docs}})
	if err != nil {
		return 0, err
	}
	v, _ := resp.Get("applied")
	n, _ := v.(int64)
	if n == int64(len(recs)) {
		return len(recs), nil
	}
	if n < 0 || n > int64(len(recs)) {
		n = 0 // a malformed answer credits nothing
	}
	return int(n), fmt.Errorf("nwr: %s applied %d of %d records: %s", target, n, len(recs), resp.StringOr("failed", "bad answer"))
}

// WriteRecords writes recs to target in order, in nwr.put.replica batches of
// at most transferBytes, and stops at the first record target fails to
// apply. It returns how many leading records target applied and whether that
// is all of them. It is the batched write behind every background transfer
// and feeds the Stream* counters.
func (c *Coordinator) WriteRecords(ctx context.Context, target string, recs []Record) (acked int, ok bool) {
	for acked < len(recs) {
		n, size := 0, 0
		for acked+n < len(recs) && (n == 0 || size+wireSize(recs[acked+n]) <= transferBytes) {
			size += wireSize(recs[acked+n])
			n++
		}
		bctx, sp := trace.Start(ctx, "stream.batch")
		sp.SetPeer(target)
		applied, err := c.putReplica(bctx, target, recs[acked:acked+n])
		sp.End(err)
		size = 0
		for _, rec := range recs[acked : acked+applied] {
			size += wireSize(rec)
		}
		c.bump(func(s *Stats) {
			if err == nil {
				s.StreamBatches++
			}
			s.StreamRecords += int64(applied)
			s.StreamBytes += int64(size)
		})
		acked += applied
		if err != nil {
			return acked, false
		}
	}
	return acked, true
}

// readLocal is the one local read: the records this node holds for a prefix
// of keys, in key order, stopping before transferBytes would be exceeded.
// consumed counts the keys answered, found or not; digest strips each value.
func (c *Coordinator) readLocal(keys []string, digest bool) (recs []Record, consumed int, err error) {
	if c.OnLocalOp != nil {
		if err := c.OnLocalOp("get", 0); err != nil {
			return nil, 0, err
		}
	}
	coll := c.store.C(RecordCollection)
	size, transfer := 0, 0
	for _, key := range keys {
		if doc, found := coll.Get(key); found {
			rec, err := RecordFromDoc(doc)
			if err != nil {
				return nil, 0, err
			}
			valLen := len(rec.Val)
			if digest {
				rec.Val = nil
			}
			if len(recs) > 0 && size+wireSize(rec) > transferBytes {
				break
			}
			size += wireSize(rec)
			transfer += valLen
			recs = append(recs, rec)
		}
		consumed++
	}
	// Charge the read transfer now that the size is known.
	if c.OnLocalOp != nil && len(recs) > 0 {
		if err := c.OnLocalOp("read-transfer", transfer); err != nil {
			return nil, 0, err
		}
	}
	return recs, consumed, nil
}

// GetLocal reads key's record from this node's store.
func (c *Coordinator) GetLocal(key string) (Record, bool, error) {
	recs, _, err := c.readLocal([]string{key}, false)
	if err != nil || len(recs) == 0 {
		return Record{}, false, err
	}
	return recs[0], true, nil
}

// readReplica runs one nwr.get.replica against target (a local read when
// target is this node).
func (c *Coordinator) readReplica(ctx context.Context, target string, keys []string, digest bool) ([]Record, int, error) {
	if target == c.self {
		return c.readLocal(keys, digest)
	}
	if c.Live != nil && !c.Live(target) {
		return nil, 0, fmt.Errorf("nwr: %s believed down", target)
	}
	arr := make(bson.A, len(keys))
	for i, k := range keys {
		arr[i] = k
	}
	body := bson.D{{Key: "keys", Value: arr}}
	if digest {
		body = append(body, bson.E{Key: "digest", Value: true})
	}
	resp, err := c.CallPeer(ctx, target, MsgGetReplica, body)
	if err != nil {
		return nil, 0, err
	}
	recs, err := recordList(resp)
	if err != nil {
		return nil, 0, err
	}
	consumed, _ := resp.Get("consumed")
	n, _ := consumed.(int64)
	return recs, int(n), nil
}

// ReadRecords reads keys' records from target, resuming at each response's
// consumed cursor until every key is answered. It returns the records target
// holds, in key order — without values when digest is set — and on error
// also what arrived before. An answer whose records do not follow the order
// of the keys asked is an error.
func (c *Coordinator) ReadRecords(ctx context.Context, target string, keys []string, digest bool) (out []Record, err error) {
	for len(keys) > 0 {
		page := keys[:min(len(keys), maxReadKeys)]
		recs, consumed, err := c.readReplica(ctx, target, page, digest)
		if err != nil {
			return out, err
		}
		if consumed <= 0 || consumed > len(page) {
			return out, fmt.Errorf("nwr: %s answered a read with consumed = %d of %d keys", target, consumed, len(page))
		}
		next := 0
		for _, rec := range recs {
			for next < consumed && page[next] != rec.Key {
				next++
			}
			if next == consumed {
				return out, fmt.Errorf("nwr: %s answered key %q out of order or unasked", target, rec.Key)
			}
			next++
		}
		if out == nil {
			out = recs
		} else {
			out = append(out, recs...)
		}
		keys = keys[consumed:]
	}
	return out, nil
}

// handlePutReplica serves nwr.put.replica: a put that applied nothing
// fails, one that stopped part way answers the applied prefix and why.
func (c *Coordinator) handlePutReplica(ctx context.Context, body bson.D) (bson.D, error) {
	recs, err := recordList(body)
	if err != nil {
		return nil, err
	}
	applied, err := c.putReplica(ctx, c.self, recs)
	if err != nil && applied == 0 {
		return nil, err
	}
	resp := bson.D{{Key: "applied", Value: int64(applied)}}
	if err != nil {
		resp = append(resp, bson.E{Key: "failed", Value: err.Error()})
	}
	return resp, nil
}

// handleGetReplica serves nwr.get.replica.
func (c *Coordinator) handleGetReplica(body bson.D) (bson.D, error) {
	kv, _ := body.Get("keys")
	arr, ok := kv.(bson.A)
	if !ok {
		return nil, errors.New("nwr: get.replica requires keys")
	}
	keys := make([]string, len(arr))
	for i, v := range arr {
		if keys[i], ok = v.(string); !ok {
			return nil, fmt.Errorf("nwr: get.replica key %d is %T, want string", i, v)
		}
	}
	digest, _ := body.Get("digest")
	recs, consumed, err := c.readLocal(keys, digest == true)
	if err != nil {
		return nil, err
	}
	docs := make(bson.A, len(recs))
	for i, rec := range recs {
		docs[i] = rec.ToDoc()
	}
	return bson.D{{Key: "records", Value: docs}, {Key: "consumed", Value: int64(consumed)}}, nil
}

// recordList parses the records array of a put request or a get response.
func recordList(body bson.D) ([]Record, error) {
	v, _ := body.Get("records")
	arr, ok := v.(bson.A)
	if !ok {
		return nil, errors.New("nwr: message carries no records array")
	}
	recs := make([]Record, len(arr))
	for i, e := range arr {
		d, isDoc := e.(bson.D)
		if !isDoc {
			return nil, fmt.Errorf("nwr: record %d is %T, want a document", i, e)
		}
		rec, err := RecordFromDoc(d)
		if err != nil {
			return nil, err
		}
		recs[i] = rec
	}
	return recs, nil
}
