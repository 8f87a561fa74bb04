package cluster

import (
	"context"
	"errors"

	"mystore/internal/bson"
	"mystore/internal/nwr"
	"mystore/internal/trace"
)

// Streaming bulk transfer: background data movement (rebalance,
// re-replication after a departure, anti-entropy leaf sync, hint drain)
// ships records in size-bounded batches over one RPC instead of one RPC per
// record — Spinnaker's recovery catch-up and DynoStore's bulk movement
// argument. Every batch passes through the coordinator's breaker-gated call
// path so a dead peer fast-fails.
const (
	// MsgStreamRecords pushes one batch of records; the receiver merges each
	// last-write-wins, which makes the stream idempotent and resumable — a
	// crash mid-stream re-sends batches without harm.
	MsgStreamRecords = "node.stream.records"
	// MsgStreamOffer sends (key, ver, origin) digests; the receiver answers
	// with the keys it is missing or holds stale, so senders don't blind-push
	// records the peer already has current.
	MsgStreamOffer = "node.stream.offer"
	// MsgStreamFetch pulls the requested keys' records, up to a byte budget
	// (anti-entropy pulling a peer's newer versions).
	MsgStreamFetch = "node.stream.fetch"
)

const (
	// defaultStreamBatchBytes bounds one records batch. Big enough to
	// amortize the per-RPC overhead ~1000x for small records, small enough
	// that one batch never monopolizes the wire for long.
	defaultStreamBatchBytes = 256 << 10
	// offerPageSize bounds digests per offer RPC.
	offerPageSize = 1024
	// defaultFetchBudget bounds one fetch response when the caller names none.
	defaultFetchBudget = int64(1 << 20)
)

// recordWireSize approximates one record's on-wire footprint: payload plus
// per-field BSON overhead. It only has to be proportionally right — the batch
// limit consumes it consistently.
func recordWireSize(rec nwr.Record) int {
	return len(rec.Key) + len(rec.Val) + len(rec.Origin) + 64
}

// streamSender accumulates records bound for one peer and flushes them in
// size-bounded MsgStreamRecords batches. After the first failed flush the
// sender is dead: Add and Flush become no-ops reporting failure, so callers
// finish their scan cheaply and re-arm a retry instead of hammering a dead
// peer once per record.
type streamSender struct {
	n     *Node
	peer  string
	limit int

	batch bson.A
	keys  []string
	bytes int

	// onDelivered, when set, receives the keys of every batch the peer
	// acknowledged (the rebalancer's drop-after-confirmed bookkeeping).
	onDelivered func(keys []string)

	sent   int
	failed bool
}

func (n *Node) newStreamSender(peer string) *streamSender {
	limit := n.cfg.StreamBatchBytes
	if limit <= 0 {
		limit = defaultStreamBatchBytes
	}
	return &streamSender{n: n, peer: peer, limit: limit}
}

// Add queues rec, flushing if the pending batch passed the size bound.
func (s *streamSender) Add(ctx context.Context, rec nwr.Record) {
	if s.failed {
		return
	}
	s.batch = append(s.batch, rec.ToDoc())
	s.keys = append(s.keys, rec.Key)
	s.bytes += recordWireSize(rec)
	if s.bytes >= s.limit {
		s.Flush(ctx)
	}
}

// Flush ships the pending batch, reporting whether the sender is still
// healthy (an empty pending batch is a healthy no-op).
func (s *streamSender) Flush(ctx context.Context) bool {
	if s.failed {
		return false
	}
	if len(s.batch) == 0 {
		return true
	}
	n := s.n
	sctx, sp := trace.Start(ctx, "stream.batch")
	sp.SetPeer(s.peer)
	_, err := n.coord.CallPeer(sctx, s.peer, MsgStreamRecords,
		bson.D{{Key: "records", Value: s.batch}})
	sp.End(err)
	if err != nil {
		s.failed = true
		return false
	}
	n.streamBatches.Add(1)
	n.streamRecords.Add(int64(len(s.batch)))
	n.streamBytes.Add(int64(s.bytes))
	s.sent += len(s.batch)
	if s.onDelivered != nil {
		s.onDelivered(s.keys)
	}
	s.batch = s.batch[:0]
	s.keys = s.keys[:0]
	s.bytes = 0
	return true
}

// Sent returns how many records the peer has acknowledged.
func (s *streamSender) Sent() int { return s.sent }

// Failed reports whether a flush has failed (remaining work must retry later).
func (s *streamSender) Failed() bool { return s.failed }

// offerSender fronts a streamSender with digest offers: records accumulate
// in pages, each page's (key, ver, origin) digests go to the peer first, and
// only the keys the peer asked for enter the stream. Records the peer
// already holds current are confirmed without moving their payload.
type offerSender struct {
	n    *Node
	peer string
	ss   *streamSender

	page   []nwr.Record
	failed bool
	// confirmed holds keys the peer is known to hold at least as new as
	// ours — either it declined the offer or it acked the batch carrying it.
	confirmed map[string]bool
}

func (n *Node) newOfferSender(peer string) *offerSender {
	o := &offerSender{n: n, peer: peer, ss: n.newStreamSender(peer), confirmed: map[string]bool{}}
	o.ss.onDelivered = func(keys []string) {
		for _, k := range keys {
			o.confirmed[k] = true
		}
	}
	return o
}

// Add queues rec for the offer/stream exchange.
func (o *offerSender) Add(ctx context.Context, rec nwr.Record) {
	if o.failed {
		return
	}
	o.page = append(o.page, rec)
	if len(o.page) >= offerPageSize {
		o.flushOffer(ctx)
	}
}

// flushOffer runs one digest exchange for the pending page and streams the
// wanted records.
func (o *offerSender) flushOffer(ctx context.Context) {
	if o.failed || len(o.page) == 0 {
		return
	}
	digests := make(bson.A, len(o.page))
	for i, rec := range o.page {
		digests[i] = bson.D{
			{Key: "key", Value: rec.Key},
			{Key: "ver", Value: rec.Ver},
			{Key: "origin", Value: rec.Origin},
		}
	}
	resp, err := o.n.coord.CallPeer(ctx, o.peer, MsgStreamOffer,
		bson.D{{Key: "digests", Value: digests}})
	if err != nil {
		o.failed = true
		return
	}
	want := map[string]bool{}
	if v, ok := resp.Get("want"); ok {
		if arr, isArr := v.(bson.A); isArr {
			for _, e := range arr {
				if s, isStr := e.(string); isStr {
					want[s] = true
				}
			}
		}
	}
	for _, rec := range o.page {
		if want[rec.Key] {
			o.ss.Add(ctx, rec)
		} else {
			o.confirmed[rec.Key] = true
		}
	}
	o.page = o.page[:0]
	if o.ss.Failed() {
		o.failed = true
	}
}

// Close flushes everything pending. It returns the set of keys confirmed on
// the peer and whether every queued record made it (false means retry later).
func (o *offerSender) Close(ctx context.Context) (confirmed map[string]bool, ok bool) {
	o.flushOffer(ctx)
	if !o.failed {
		o.ss.Flush(ctx)
	}
	return o.confirmed, !o.failed && !o.ss.Failed()
}

// Sent returns how many records were actually streamed (offers the peer
// declined move nothing).
func (o *offerSender) Sent() int { return o.ss.Sent() }

// --- receiver side ---

// handleStreamRecords merges one pushed batch last-write-wins.
func (n *Node) handleStreamRecords(ctx context.Context, body bson.D) (bson.D, error) {
	v, _ := body.Get("records")
	arr, ok := v.(bson.A)
	if !ok {
		return nil, errors.New("cluster: stream.records requires records")
	}
	applied := int64(0)
	for _, e := range arr {
		d, isDoc := e.(bson.D)
		if !isDoc {
			continue
		}
		rec, err := nwr.RecordFromDoc(d)
		if err != nil {
			continue
		}
		if n.coord.ApplyLocalCtx(ctx, rec) == nil {
			applied++
		}
	}
	return bson.D{{Key: "applied", Value: applied}}, nil
}

// handleStreamOffer answers a digest page with the keys this node is missing
// or holds stale.
func (n *Node) handleStreamOffer(body bson.D) (bson.D, error) {
	v, _ := body.Get("digests")
	arr, ok := v.(bson.A)
	if !ok {
		return nil, errors.New("cluster: stream.offer requires digests")
	}
	var want bson.A
	for _, e := range arr {
		d, isDoc := e.(bson.D)
		if !isDoc {
			continue
		}
		key := d.StringOr("key", "")
		if key == "" {
			continue
		}
		verV, _ := d.Get("ver")
		ver, _ := verV.(int64)
		remote := nwr.Record{Key: key, Ver: ver, Origin: d.StringOr("origin", "")}
		local, found, err := n.coord.GetLocal(key)
		if err != nil {
			continue
		}
		if !found || remote.Newer(local) {
			want = append(want, key)
		}
	}
	return bson.D{{Key: "want", Value: want}}, nil
}

// handleStreamFetch returns the requested keys' local records up to a byte
// budget; truncated tells the caller to come back for the rest.
func (n *Node) handleStreamFetch(body bson.D) (bson.D, error) {
	v, _ := body.Get("keys")
	arr, ok := v.(bson.A)
	if !ok {
		return nil, errors.New("cluster: stream.fetch requires keys")
	}
	budget := defaultFetchBudget
	if bv, ok := body.Get("budget"); ok {
		if b, isInt := bv.(int64); isInt && b > 0 {
			budget = b
		}
	}
	var out bson.A
	bytes := int64(0)
	consumed := int64(0)
	for _, e := range arr {
		key, isStr := e.(string)
		if !isStr {
			consumed++
			continue
		}
		rec, found, err := n.coord.GetLocal(key)
		if err != nil || !found {
			consumed++
			continue
		}
		sz := int64(recordWireSize(rec))
		if len(out) > 0 && bytes+sz > budget {
			break // truncated; consumed tells the caller where to resume
		}
		out = append(out, rec.ToDoc())
		bytes += sz
		consumed++
	}
	return bson.D{
		{Key: "records", Value: out},
		{Key: "consumed", Value: consumed},
	}, nil
}
