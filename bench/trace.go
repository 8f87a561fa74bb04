package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mystore"
	"mystore/internal/bson"
	"mystore/internal/rest"
	"mystore/internal/transport"
)

// Span names, outermost first. Each is timed at a public boundary from the
// benchmark's own decorators, so it survives a rewrite of what lies inside.
const (
	spanRequest     = "rest.request"           // HTTP round trip at the load generator
	spanClusterCall = "cluster.call"           // rest.Backend call into the cluster client
	spanClientCall  = "transport.client_call"  // gateway's transport -> a node
	spanCoord       = "node.coord"             // a node handling node.* for a client
	spanReplicaCall = "transport.replica_call" // nwr.* / cns.* leaving a node
	spanReplica     = "node.replica"           // a node handling nwr.put.replica, nwr.get.replica, cns.append
	spanBackground  = "background"             // gossip, anti-entropy, streams, hints, pings
)

// parentKind says which span may contain which across a boundary the
// context does not cross.
var parentKind = map[string]string{
	spanClusterCall: spanRequest,
	spanClientCall:  spanClusterCall,
	spanCoord:       spanClientCall,
	spanReplicaCall: spanCoord,
	spanReplica:     spanReplicaCall,
}

// span is one timed interval. Times are nanoseconds since the recorder's
// epoch; all spans come from one process, so one clock orders them.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Msg     string `json:"msg,omitempty"`  // message type, or get/put on a request
	Node    string `json:"node,omitempty"` // address the span ran on
	Peer    string `json:"peer,omitempty"` // call destination
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Strong  bool   `json:"strong,omitempty"`
	Bytes   int    `json:"bytes,omitempty"` // request + response bodies of a call
	// Async marks a span that outlived its parent: work the parent started
	// and did not wait for (the third replica write, a hedged read).
	Async bool `json:"async,omitempty"`
}

// recorder collects spans in memory and counts messages by type. Counting
// is always on; span recording only while on is set, so the counter window
// runs undisturbed on the same cluster.
type recorder struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	msgMu sync.RWMutex
	msgs  map[string]*atomic.Int64

	backendOps, strongOps, clientCalls, strongClientCalls atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), msgs: map[string]*atomic.Int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) countMsg(typ string) {
	r.msgMu.RLock()
	c := r.msgs[typ]
	r.msgMu.RUnlock()
	if c == nil {
		r.msgMu.Lock()
		if c = r.msgs[typ]; c == nil {
			c = new(atomic.Int64)
			r.msgs[typ] = c
		}
		r.msgMu.Unlock()
	}
	c.Add(1)
}

// msgCounts snapshots the per-type message counters.
func (r *recorder) msgCounts() map[string]int64 {
	out := map[string]int64{}
	r.msgMu.RLock()
	for k, c := range r.msgs {
		out[k] = c.Load()
	}
	r.msgMu.RUnlock()
	return out
}

type spanCtxKey struct{}

// begin opens a span. Its parent is taken from ctx where the caller's span
// travelled with it; otherwise resolve nests it by interval afterwards.
func (r *recorder) begin(ctx context.Context, name string) (context.Context, *span) {
	s := &span{ID: r.nextID.Add(1), Name: name, Start: r.now()}
	if p, ok := ctx.Value(spanCtxKey{}).(int64); ok {
		s.Parent = p
	}
	return context.WithValue(ctx, spanCtxKey{}, s.ID), s
}

func (r *recorder) finish(s *span) {
	s.End = r.now()
	r.add(s)
}

func (r *recorder) add(s *span) {
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

func bodyBytes(d bson.D) int {
	b, err := bson.Marshal(d)
	if err != nil {
		return 0
	}
	return len(b)
}

func isStrong(body bson.D) bool { return body.StringOr("consistency", "") == "strong" }

// tracedTransport wraps one endpoint: calls leaving it and requests it
// handles each become a span.
type tracedTransport struct {
	transport.Transport
	rec    *recorder
	client bool // the gateway's endpoint; otherwise a node's
}

// Message types on the request path; every other type is background.
var (
	coordMsgs   = map[string]bool{"node.put": true, "node.get": true, "node.get.many": true, "node.delete": true}
	replicaMsgs = map[string]bool{"nwr.put.replica": true, "nwr.get.replica": true, "nwr.get.replica.batch": true, "cns.append": true}
)

func callSpanName(client bool, typ string) string {
	switch {
	case client:
		return spanClientCall
	case replicaMsgs[typ] || strings.HasPrefix(typ, "cns."): // votes and snapshots leave a node too
		return spanReplicaCall
	}
	return spanBackground
}

func handlerSpanName(typ string) string {
	switch {
	case coordMsgs[typ]:
		return spanCoord
	case replicaMsgs[typ]:
		return spanReplica
	}
	return spanBackground
}

func (t *tracedTransport) Call(ctx context.Context, to string, msg transport.Message) (bson.D, error) {
	t.rec.countMsg(msg.Type)
	if t.client {
		t.rec.clientCalls.Add(1)
		if isStrong(msg.Body) {
			t.rec.strongClientCalls.Add(1)
		}
	}
	if !t.rec.on.Load() {
		return t.Transport.Call(ctx, to, msg)
	}
	ctx, s := t.rec.begin(ctx, callSpanName(t.client, msg.Type))
	s.Msg, s.Node, s.Peer, s.Strong = msg.Type, t.Addr(), to, isStrong(msg.Body)
	resp, err := t.Transport.Call(ctx, to, msg)
	s.End = t.rec.now()
	// Sized after the span closed, so the cost lands in the caller's self time.
	s.Bytes = bodyBytes(msg.Body) + bodyBytes(resp)
	t.rec.add(s)
	return resp, err
}

func (t *tracedTransport) SetHandler(h transport.Handler) {
	t.Transport.SetHandler(func(ctx context.Context, msg transport.Message) (bson.D, error) {
		if !t.rec.on.Load() {
			return h(ctx, msg)
		}
		// The wire carried no span: resolve finds the handler's parent by interval.
		ctx, s := t.rec.begin(ctx, handlerSpanName(msg.Type))
		s.Msg, s.Node, s.Peer, s.Strong = msg.Type, t.Addr(), msg.From, isStrong(msg.Body)
		resp, err := h(ctx, msg)
		t.rec.finish(s)
		return resp, err
	})
}

// tracedBackend wraps the gateway's backend: one cluster.call span per op.
type tracedBackend struct {
	inner mystore.ClusterBackend
	rec   *recorder
}

func (b tracedBackend) span(ctx context.Context, msg string, strong bool) (context.Context, func()) {
	b.rec.backendOps.Add(1)
	if strong {
		b.rec.strongOps.Add(1)
	}
	if !b.rec.on.Load() {
		return ctx, func() {}
	}
	ctx, s := b.rec.begin(ctx, spanClusterCall)
	s.Msg, s.Strong = msg, strong
	return ctx, func() { b.rec.finish(s) }
}

func (b tracedBackend) Put(ctx context.Context, key string, val []byte) error {
	ctx, end := b.span(ctx, "put", false)
	defer end()
	return b.inner.Put(ctx, key, val)
}

func (b tracedBackend) Get(ctx context.Context, key string) ([]byte, error) {
	ctx, end := b.span(ctx, "get", false)
	defer end()
	return b.inner.Get(ctx, key)
}

func (b tracedBackend) Delete(ctx context.Context, key string) error {
	ctx, end := b.span(ctx, "delete", false)
	defer end()
	return b.inner.Delete(ctx, key)
}

func (b tracedBackend) GetMany(ctx context.Context, keys []string) (map[string][]byte, map[string]string, error) {
	ctx, end := b.span(ctx, "get.many", false)
	defer end()
	return b.inner.GetMany(ctx, keys)
}

func (b tracedBackend) StrongPut(ctx context.Context, key string, val []byte) error {
	ctx, end := b.span(ctx, "put", true)
	defer end()
	return b.inner.StrongPut(ctx, key, val)
}

func (b tracedBackend) StrongGet(ctx context.Context, key string) ([]byte, error) {
	ctx, end := b.span(ctx, "get", true)
	defer end()
	return b.inner.StrongGet(ctx, key)
}

func (b tracedBackend) StrongDelete(ctx context.Context, key string) error {
	ctx, end := b.span(ctx, "delete", true)
	defer end()
	return b.inner.StrongDelete(ctx, key)
}

var (
	_ rest.Backend       = tracedBackend{}
	_ rest.BatchBackend  = tracedBackend{}
	_ rest.StrongBackend = tracedBackend{}
)

// resolve gives every span its parent and request. A span whose parent came
// with the context keeps it; the others (across HTTP and across the wire)
// take the innermost span of the permitted kind whose interval contains
// theirs and whose addresses agree. With one request in flight that choice
// is unique; background traffic has no permitted parent and stays at 0.
func resolve(spans []span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	byID := make(map[int64]int, len(spans))
	byKind := map[string][]int{} // indexes in start order
	for i := range spans {
		byID[spans[i].ID] = i
		byKind[spans[i].Name] = append(byKind[spans[i].Name], i)
	}
	for i := range spans {
		s := &spans[i]
		if s.Name == spanRequest {
			s.Request = s.ID
			continue
		}
		if s.Parent == 0 {
			s.Parent = enclosing(spans, byKind[parentKind[s.Name]], s)
		}
		if p, ok := byID[s.Parent]; ok {
			s.Request = spans[p].Request
			s.Async = s.End > spans[p].End
		} else {
			s.Parent = 0
		}
	}
}

// enclosing returns the ID of the latest-starting candidate that contains s
// and agrees with it on message type and address, or 0.
func enclosing(spans []span, candidates []int, s *span) int64 {
	// Candidates start in order; those starting after s cannot contain it.
	hi := sort.Search(len(candidates), func(k int) bool { return spans[candidates[k]].Start > s.Start })
	for k := hi - 1; k >= 0 && k >= hi-256; k-- {
		p := &spans[candidates[k]]
		if p.End < s.End {
			continue
		}
		switch s.Name {
		case spanCoord, spanReplica: // handler under the call that carried it
			if p.Peer != s.Node || p.Msg != s.Msg {
				continue
			}
		case spanReplicaCall: // a call under the handler of the node it left
			if p.Node != s.Node {
				continue
			}
		}
		return p.ID
	}
	return 0
}

// budget is where the traced requests' time went: each instant of a request
// is charged to the deepest span on its blocking path.
type budget struct {
	requests int
	total    int64            // sum of rest.request durations, ns
	self     map[string]int64 // layer -> ns on the blocking path
}

const unexplained = "unexplained"

// layerOf names the layer a span's own time is charged to. A call with no
// handler span under it could not be matched across the wire; its time is
// not attributed to the transport but reported as unexplained.
func layerOf(s *span, hasChild bool) string {
	switch s.Name {
	case spanRequest:
		return "rest"
	case spanClusterCall:
		return "cluster"
	case spanClientCall:
		if hasChild {
			return "transport.client"
		}
	case spanCoord:
		if s.Strong {
			return "consensus"
		}
		return "nwr"
	case spanReplicaCall:
		if hasChild {
			return "transport.replica"
		}
	case spanReplica:
		return "replica"
	}
	return unexplained
}

// blockingBudget walks each request's tree from its end backwards: the child
// that finished last before the cursor blocked the parent until then, the
// gap after it is the parent's own time, and children that ran beside it or
// outlived the parent blocked nothing.
func blockingBudget(spans []span) budget {
	kids := map[int64][]int{}
	for i := range spans {
		if spans[i].Parent != 0 {
			kids[spans[i].Parent] = append(kids[spans[i].Parent], i)
		}
	}
	b := budget{self: map[string]int64{}}
	var walk func(i int)
	walk = func(i int) {
		s := &spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, c int) bool { return spans[ch[a]].End > spans[ch[c]].End })
		layer := layerOf(s, len(ch) > 0)
		cursor := s.End
		for _, c := range ch {
			k := &spans[c]
			if k.End > cursor || k.Start < s.Start {
				continue
			}
			b.self[layer] += cursor - k.End
			walk(c)
			cursor = k.Start
		}
		b.self[layer] += cursor - s.Start
	}
	for i := range spans {
		if spans[i].Name == spanRequest {
			b.requests++
			b.total += spans[i].End - spans[i].Start
			walk(i)
		}
	}
	return b
}

// perRequestMs is a layer's blocking time per traced request.
func (b budget) perRequestMs(layer string) float64 {
	if b.requests == 0 {
		return 0
	}
	return float64(b.self[layer]) / float64(b.requests) / 1e6
}

// coverage is the share of request time charged to a named layer.
func (b budget) coverage() float64 {
	if b.total == 0 {
		return 0
	}
	return float64(b.total-b.self[unexplained]) / float64(b.total)
}

// meanMs averages the durations of the spans pick accepts.
func meanMs(spans []span, pick func(*span) bool) float64 {
	var sum, n int64
	for i := range spans {
		if pick(&spans[i]) {
			sum += spans[i].End - spans[i].Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// dumpSpans writes the resolved spans for offline reading.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
