package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mystore/internal/bson"
	"mystore/internal/consensus"
	"mystore/internal/docstore"
	"mystore/internal/resilience"
	"mystore/internal/ring"
	"mystore/internal/trace"
	"mystore/internal/transport"
)

// Client talks to a MyStore cluster from outside: it connects to any node
// ("all physical nodes have open service interfaces over TCP, which lets
// clients can connect to any node in the system to get/put data", §6.2).
// An eventual get, put or delete goes to its key's primary on the client's
// copy of the ring; other operations rotate across the nodes it knows,
// skipping ones that fail.
//
// Connect follows the paper's three-step procedure (§5.1): the transport
// supplies the connection pool, ClientOptions carry the connection
// parameters, and the version query performs the real connection test — the
// client is only usable once a node has actually answered.
type Client struct {
	tr   transport.Transport
	opts ClientOptions
	// attempts is the number of tries per operation: 2 with AutoRetry, else 1.
	attempts int
	mu       sync.Mutex
	nodes    []string
	next     int
	// Strong-op routing: the node that last served a strong operation of each
	// consensus range, tried first the next time. ranges is the cluster's
	// range count as strong replies report it (0 until one has), so leaders
	// never holds more entries than that.
	ranges  int
	leaders map[int]string
	// The ring as the last version answer listed it, its ringFingerprint,
	// and whether a refresh (checkRing) is running.
	ring       *ring.Ring
	ringFp     int64
	refreshing atomic.Bool
}

// ClientOptions are the connection parameters (the paper's
// connecttimeoutms / sockettimeoutms / autoconnectretry analogues).
type ClientOptions struct {
	// ConnectTimeout bounds the Connect test per node. Zero means 2s.
	ConnectTimeout time.Duration
	// CallTimeout bounds each data operation. Zero means 10s.
	CallTimeout time.Duration
	// AutoRetry, when true, retries a failed operation once on the next
	// node in rotation, after a jittered backoff.
	AutoRetry bool
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	return o
}

// ErrNoNodes means the client has no reachable node.
var ErrNoNodes = errors.New("cluster: no reachable nodes")

// ErrKeyNotFound is returned by Get for absent or deleted keys.
var ErrKeyNotFound = errors.New("cluster: key not found")

// Connect builds a client over tr and verifies at least one node answers
// the version test. Nodes that fail the test are kept in rotation (they may
// recover) but at least one must pass now, mirroring "only when the
// connection to the database is built really, the Connect will return
// true".
func Connect(ctx context.Context, tr transport.Transport, nodes []string, opts ClientOptions) (*Client, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	c := &Client{tr: tr, opts: opts.withDefaults(), attempts: 1, nodes: append([]string(nil), nodes...)}
	if opts.AutoRetry {
		c.attempts = 2
	}
	var lastErr error
	for _, node := range nodes {
		cctx, cancel := context.WithTimeout(ctx, c.opts.ConnectTimeout)
		resp, err := tr.Call(cctx, node, transport.Message{Type: MsgVersion})
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		if v := resp.StringOr("version", ""); v == "" {
			lastErr = fmt.Errorf("cluster: node %s returned no version", node)
			continue
		}
		c.setRing(resp)
		return c, nil
	}
	return nil, fmt.Errorf("%w: connection test failed everywhere: %v", ErrNoNodes, lastErr)
}

// pick returns the next node in rotation, preferring nodes that have not
// just failed this operation (avoid). When every node is excluded it falls
// back to plain rotation — trying a doubtful node beats failing without
// trying at all.
func (c *Client) pick(avoid map[string]bool) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.nodes)
	for i := 0; i < n; i++ {
		node := c.nodes[c.next%n]
		c.next++
		if avoid[node] {
			continue
		}
		return node
	}
	node := c.nodes[c.next%n]
	c.next++
	return node
}

// setRing adopts the ring members a version answer lists.
func (c *Client) setRing(resp bson.D) {
	v, _ := resp.Get("ring")
	arr, _ := v.(bson.A)
	r := ring.New()
	for _, e := range arr {
		d, _ := e.(bson.D)
		w, _ := d.Get("weight")
		weight, _ := w.(int64)
		r.AddNode(ring.Node{ID: d.StringOr("addr", ""), Weight: int(weight)}) //nolint:errcheck // a malformed member is skipped
	}
	fp := ringFingerprint(r.Nodes())
	c.mu.Lock()
	c.ring, c.ringFp = r, fp
	c.mu.Unlock()
}

// route picks the node for attempt i of an operation on key: the key's i-th
// ring successor, so the first attempt goes to its primary and a retry to
// its next replica. With no key, no ring, or once that successor has failed,
// it falls back to the rotation.
func (c *Client) route(key string, i int, failed map[string]bool) string {
	c.mu.Lock()
	r := c.ring
	c.mu.Unlock()
	if key != "" && r != nil {
		if succ, err := r.Successors(key, i+1); err == nil && len(succ) > i && !failed[succ[i]] {
			return succ[i]
		}
	}
	return c.pick(failed)
}

// checkRing starts a refresh of the client's ring from node when node's
// answer carries another ring fingerprint, at most one refresh at a time.
// A stale ring costs a hop, never correctness: any node coordinates any key.
func (c *Client) checkRing(node string, resp bson.D) {
	v, _ := resp.Get("ringFp")
	fp, ok := v.(int64)
	c.mu.Lock()
	stale := ok && fp != c.ringFp
	c.mu.Unlock()
	if !stale || !c.refreshing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.refreshing.Store(false)
		ctx, cancel := context.WithTimeout(context.Background(), c.opts.ConnectTimeout)
		defer cancel()
		if resp, err := c.tr.Call(ctx, node, transport.Message{Type: MsgVersion}); err == nil {
			c.setRing(resp)
		}
	}()
}

// call performs one operation with up to c.attempts tries, jittered
// exponential backoff between them, skipping nodes that already failed this
// operation while others remain. An operation on a key ("" for none) goes
// where route sends it.
func (c *Client) call(ctx context.Context, msgType, key string, body bson.D) (bson.D, error) {
	ctx, sp := trace.Start(ctx, "cluster.call")
	resp, err := c.callAttempts(ctx, msgType, key, body)
	sp.End(err)
	return resp, err
}

func (c *Client) callAttempts(ctx context.Context, msgType, key string, body bson.D) (bson.D, error) {
	var failed map[string]bool
	var lastErr error
	for i := 0; i < c.attempts; i++ {
		if i > 0 {
			if resilience.Sleep(ctx, resilience.Backoff(i-1)) != nil {
				break // caller gave up mid-backoff
			}
		}
		node := c.route(key, i, failed)
		cctx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
		resp, err := c.tr.Call(cctx, node, transport.Message{Type: msgType, Body: body})
		cancel()
		if err == nil {
			if key != "" {
				c.checkRing(node, resp)
			}
			return resp, nil
		}
		lastErr = err
		if failed == nil {
			failed = make(map[string]bool, c.attempts)
		}
		failed[node] = true
		// Remote application errors will not improve on another node if
		// they are data errors, but quorum failures might; retry anyway.
	}
	return nil, lastErr
}

// maxLeaderRedirects bounds how many NotLeader redirect hops one attempt
// may follow before the hop chain counts as a failed attempt. Redirects are
// free — a node telling us exactly where to go is progress, not failure, so
// following its hint must not consume the caller's retry budget.
const maxLeaderRedirects = 3

// leaderOf returns the node remembered as leading key's range ("" if none).
func (c *Client) leaderOf(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ranges == 0 {
		return ""
	}
	return c.leaders[consensus.RangeOf(ring.Hash(key), c.ranges)]
}

// rememberLeader records that node served a strong operation on key; resp
// carries the range count that maps the key to its range.
func (c *Client) rememberLeader(key, node string, resp bson.D) {
	v, _ := resp.Get("ranges")
	ranges, _ := v.(int64)
	if ranges <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(ranges) != c.ranges {
		c.ranges, c.leaders = int(ranges), make(map[int]string, ranges)
	}
	c.leaders[consensus.RangeOf(ring.Hash(key), c.ranges)] = node
}

// forgetLeader drops node as the remembered leader of key's range.
func (c *Client) forgetLeader(key, node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ranges == 0 {
		return
	}
	if rid := consensus.RangeOf(ring.Hash(key), c.ranges); c.leaders[rid] == node {
		delete(c.leaders, rid)
	}
}

// callStrong performs one strong operation on key: the request carries
// consistency=strong and goes first to the node remembered as leading the
// key's range (Spinnaker's clients route to the cohort leader the same way),
// else to the next node in rotation. NotLeader rejections are treated as
// retryable, and a rejection's leader hint is followed as a free hop within
// the same attempt. The node that serves the operation is remembered; one
// that rejects it as not the leader, or cannot be reached, is forgotten.
func (c *Client) callStrong(ctx context.Context, msgType, key string, body bson.D) (bson.D, error) {
	ctx, sp := trace.Start(ctx, "cluster.call.strong")
	req := make(bson.D, 0, len(body)+1)
	req = append(req, body...)
	req = append(req, bson.E{Key: "consistency", Value: "strong"})

	var failed map[string]bool
	var lastErr error
	for i := 0; i < c.attempts; i++ {
		if i > 0 {
			if resilience.Sleep(ctx, resilience.Backoff(i-1)) != nil {
				break // caller gave up mid-backoff
			}
		}
		node := c.leaderOf(key)
		if node == "" {
			node = c.pick(failed)
		}
		for hop := 0; hop <= maxLeaderRedirects; hop++ {
			cctx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
			resp, err := c.tr.Call(cctx, node, transport.Message{Type: msgType, Body: req})
			cancel()
			if err == nil {
				c.rememberLeader(key, node, resp)
				sp.End(nil)
				return resp, nil
			}
			lastErr = err
			leader, isNL := consensus.ParseNotLeader(err)
			if isNL || !transport.IsRemote(err) {
				c.forgetLeader(key, node)
			}
			if isNL {
				// The node answered — it just isn't the leader. Its hint is
				// a free redirect; without one (mid-election) fall through
				// to the next attempt, whose backoff rides the election out.
				if leader != "" && leader != node {
					node = leader
					continue
				}
				break
			}
			// Transport-level failure: this node is out for this operation.
			if failed == nil {
				failed = make(map[string]bool, c.attempts)
			}
			failed[node] = true
			break
		}
	}
	sp.End(lastErr)
	return nil, lastErr
}

// StrongPut writes key through the owning range's replicated log: the ack
// means a majority of the range's replicas hold the write durably.
func (c *Client) StrongPut(ctx context.Context, key string, val []byte) error {
	_, err := c.callStrong(ctx, MsgPut, key, bson.D{
		{Key: "self-key", Value: key},
		{Key: "val", Value: val},
	})
	return err
}

// StrongGet reads key from the range leader under its lease — linearizable
// with respect to StrongPut/StrongDelete acks.
func (c *Client) StrongGet(ctx context.Context, key string) ([]byte, error) {
	resp, err := c.callStrong(ctx, MsgGet, key, bson.D{{Key: "self-key", Value: key}})
	if err != nil {
		return nil, err
	}
	if found, ok := resp.Get("found"); !ok || found != true {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	v, _ := resp.Get("val")
	b, ok := v.([]byte)
	if !ok {
		return nil, errors.New("cluster: malformed strong get response")
	}
	return b, nil
}

// StrongDelete replicates a tombstone for key through the range's log.
func (c *Client) StrongDelete(ctx context.Context, key string) error {
	_, err := c.callStrong(ctx, MsgDelete, key, bson.D{{Key: "self-key", Value: key}})
	return err
}

// Put stores val under key.
func (c *Client) Put(ctx context.Context, key string, val []byte) error {
	_, err := c.call(ctx, MsgPut, key, bson.D{
		{Key: "self-key", Value: key},
		{Key: "val", Value: val},
	})
	return err
}

// PutDoc stores a BSON document under key; its fields become queryable via
// Query filters under the "doc." prefix.
func (c *Client) PutDoc(ctx context.Context, key string, doc bson.D) error {
	enc, err := bson.Marshal(doc)
	if err != nil {
		return err
	}
	return c.Put(ctx, key, enc)
}

// Get fetches the value stored under key.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	resp, err := c.call(ctx, MsgGet, key, bson.D{{Key: "self-key", Value: key}})
	if err != nil {
		return nil, err
	}
	if found, ok := resp.Get("found"); !ok || found != true {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	v, _ := resp.Get("val")
	b, ok := v.([]byte)
	if !ok {
		return nil, errors.New("cluster: malformed get response")
	}
	return b, nil
}

// GetMany fetches several keys in one round trip: the receiving node
// coordinates a batched quorum read with one replica RPC per peer. The first
// map holds the keys that were found; failed holds per-key error text for
// keys whose read quorum could not be met (keys in neither map simply do not
// exist). Duplicate keys are collapsed.
func (c *Client) GetMany(ctx context.Context, keys []string) (found map[string][]byte, failed map[string]string, err error) {
	found = map[string][]byte{}
	if len(keys) == 0 {
		return found, nil, nil
	}
	arr := make(bson.A, len(keys))
	for i, k := range keys {
		arr[i] = k
	}
	resp, err := c.call(ctx, MsgGetMany, "", bson.D{{Key: "keys", Value: arr}})
	if err != nil {
		return nil, nil, err
	}
	rv, _ := resp.Get("results")
	ra, ok := rv.(bson.A)
	if !ok {
		return nil, nil, errors.New("cluster: malformed get.many response")
	}
	for _, ev := range ra {
		d, isDoc := ev.(bson.D)
		if !isDoc {
			continue
		}
		key := d.StringOr("self-key", "")
		if msg := d.StringOr("err", ""); msg != "" {
			if failed == nil {
				failed = map[string]string{}
			}
			failed[key] = msg
			continue
		}
		if fv, _ := d.Get("found"); fv != true {
			continue
		}
		v, _ := d.Get("val")
		b, isBytes := v.([]byte)
		if !isBytes {
			return nil, nil, errors.New("cluster: malformed get.many entry")
		}
		found[key] = b
	}
	return found, failed, nil
}

// GetDoc fetches and decodes a document stored with PutDoc.
func (c *Client) GetDoc(ctx context.Context, key string) (bson.D, error) {
	val, err := c.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	return bson.Unmarshal(val)
}

// Delete tombstones key.
func (c *Client) Delete(ctx context.Context, key string) error {
	_, err := c.call(ctx, MsgDelete, key, bson.D{{Key: "self-key", Value: key}})
	return err
}

// Query runs a distributed query. Filters address record fields (self-key,
// size, isDel) and stored-document fields as "doc.<field>".
func (c *Client) Query(ctx context.Context, filter docstore.Filter, opts docstore.FindOptions) ([]QueryResult, error) {
	resp, err := c.call(ctx, MsgQuery, "", encodeQuery(filter, opts))
	if err != nil {
		return nil, err
	}
	v, _ := resp.Get("results")
	arr, ok := v.(bson.A)
	if !ok {
		return nil, nil
	}
	out := make([]QueryResult, 0, len(arr))
	for _, e := range arr {
		d, isDoc := e.(bson.D)
		if !isDoc {
			continue
		}
		r := QueryResult{Key: d.StringOr("self-key", "")}
		if val, ok := d.Get("val"); ok {
			if b, isBytes := val.([]byte); isBytes {
				r.Val = b
			}
		}
		if doc, ok := d.Get("doc"); ok {
			if dd, isDoc := doc.(bson.D); isDoc {
				r.Doc = dd
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// Aggregate runs a distributed group-by: filter as in Query, grouped by
// spec.By with spec's accumulators. One result document per group, ordered
// by group value.
func (c *Client) Aggregate(ctx context.Context, filter docstore.Filter, spec docstore.GroupSpec) ([]bson.D, error) {
	body := encodeQuery(filter, docstore.FindOptions{})
	body = append(body, bson.E{Key: "by", Value: spec.By})
	accs := make(bson.A, len(spec.Accumulators))
	for i, a := range spec.Accumulators {
		accs[i] = bson.D{
			{Key: "name", Value: a.Name},
			{Key: "op", Value: a.Op},
			{Key: "field", Value: a.Field},
		}
	}
	body = append(body, bson.E{Key: "accs", Value: accs})
	resp, err := c.call(ctx, MsgAggregate, "", body)
	if err != nil {
		return nil, err
	}
	v, _ := resp.Get("rows")
	arr, ok := v.(bson.A)
	if !ok {
		return nil, nil
	}
	out := make([]bson.D, 0, len(arr))
	for _, e := range arr {
		if d, isDoc := e.(bson.D); isDoc {
			out = append(out, d)
		}
	}
	return out, nil
}

// Status fetches a node status snapshot (round-robin across nodes).
func (c *Client) Status(ctx context.Context) (bson.D, error) {
	return c.call(ctx, MsgStatus, "", nil)
}

// Transport exposes the client's transport (metrics registration: the
// per-peer RPC latency vec lives on the transport).
func (c *Client) Transport() transport.Transport { return c.tr }

// Nodes returns the node addresses in rotation.
func (c *Client) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.nodes...)
}
