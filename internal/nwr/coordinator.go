package nwr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mystore/internal/bson"
	"mystore/internal/docstore"
	"mystore/internal/metrics"
	"mystore/internal/resilience"
	"mystore/internal/ring"
	"mystore/internal/trace"
	"mystore/internal/transport"
)

// Message types the coordinator registers on the node's transport mux.
// MsgPutReplica and MsgGetReplica are the record protocol (protocol.go).
const (
	MsgPutReplica = "nwr.put.replica"
	MsgGetReplica = "nwr.get.replica"
	MsgHintStore  = "nwr.hint.store"
)

// replicaRetries is how many additional attempts a failed replica write
// gets before the coordinator hands the data off as a hint ("try to write
// several times", §5.1).
const replicaRetries = 2

// Config is the paper's (N, W, R) plus operational knobs.
type Config struct {
	// N is the replication factor; W and R the write and read quorums.
	// The paper's evaluation runs (3, 2, 1).
	N, W, R int
	// CallTimeout bounds each replica RPC; it must be positive. The cluster
	// node sets it (cluster.Config's default is 2s) and bounds its consensus
	// RPCs by the same value.
	CallTimeout time.Duration
	// Now overrides the clock (deterministic tests). Nil means time.Now.
	Now func() time.Time
}

// Validate checks quorum sanity and that CallTimeout is set.
func (c Config) Validate() error {
	if c.N < 1 {
		return errors.New("nwr: N must be >= 1")
	}
	if c.W < 1 || c.W > c.N {
		return fmt.Errorf("nwr: W=%d out of range [1,%d]", c.W, c.N)
	}
	if c.R < 1 || c.R > c.N {
		return fmt.Errorf("nwr: R=%d out of range [1,%d]", c.R, c.N)
	}
	if c.CallTimeout <= 0 {
		return errors.New("nwr: CallTimeout must be > 0")
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Errors returned by coordinator operations.
var (
	ErrQuorumWrite = errors.New("nwr: write quorum not reached")
	ErrQuorumRead  = errors.New("nwr: read quorum not reached")
	ErrNotFound    = errors.New("nwr: key not found")
)

// Stats counts coordinator activity. Gets counts keys read through a replica
// fan-out.
type Stats struct {
	Puts, PutFailures    int64
	Gets, GetFailures    int64
	HintsStored          int64
	HintsDelivered       int64
	ReadRepairs          int64
	ReplicaSupplements   int64
	RetriedReplicaWrites int64
	// HedgedReads counts reserve replica reads launched early by the hedge
	// timer or a failed read, one per key and reserve.
	HedgedReads int64
	// CoalescedReads is always 0: reads are no longer coalesced per key.
	// It stays for the benchmark, which reads it.
	CoalescedReads int64
	// BatchGets counts GetMany operations coordinated here.
	BatchGets int64
	// ReadRepairDropped counts repairs left to anti-entropy: jobs lost to a
	// full repair queue, and repairs whose newest record, named by a digest,
	// could not be fetched whole.
	ReadRepairDropped int64
	// ReadQuorumViolations is a defensive tripwire: incremented if a read
	// ever counted a key settled below R successful responses. The chaos
	// harness asserts it stays zero.
	ReadQuorumViolations int64
	// Stream* count what WriteRecords delivered — the background transfer
	// volume of hint writeback, anti-entropy, rebalance and snapshot
	// catch-up: acknowledged batches, their records and wire bytes.
	StreamBatches, StreamRecords, StreamBytes int64
}

// Coordinator runs the NWR protocol for one node. It is safe for concurrent
// use.
type Coordinator struct {
	cfg   Config
	self  string
	ring  *ring.Ring
	tr    transport.Transport
	store *docstore.Store

	// peers is this node's health verdict per peer, asked and fed by every
	// CallPeer; budget bounds replica-write retries.
	peers  *resilience.Peers
	budget *resilience.RetryBudget
	// SkipHint, when non-nil, reports records hint writeback must leave
	// parked for now. The cluster layer wires it to the consensus tier:
	// while a log-managed (_strong) record's range is led by a consensus
	// leader on another node, the replicated log is the only path allowed
	// to move it — racing an LWW writeback against it could resurrect a
	// superseded version. Skipped hints stay in the collection and retry
	// on a later pass.
	SkipHint func(rec Record) bool
	// OnLocalOp, when non-nil, runs before every local store operation
	// with the operation kind and the payload size involved. The
	// failure-injection framework uses it to model disk I/O errors and
	// blocking on this node; the benchmark harness charges simulated disk
	// time through it. A returned error fails the local operation.
	OnLocalOp func(op string, bytes int) error

	mu      sync.Mutex
	stats   Stats
	lastVer int64

	// Quorum-operation latency distributions behind /metrics.
	putLatency *metrics.BucketedHistogram
	getLatency *metrics.BucketedHistogram

	// Async read-repair pool. Workers start lazily on the first enqueue;
	// the quit channel (not a channel close) stops them so a late enqueue
	// after Close can never panic.
	repairQ        chan repairJob
	repairQuit     chan struct{}
	repairOnce     sync.Once
	closeOnce      sync.Once
	repairWG       sync.WaitGroup
	pendingRepairs atomic.Int64

	// Repair probes per peer, waiting for that peer's batched digest read
	// (readpath.go); queuedProbes counts them until their answers land.
	probeMu      sync.Mutex
	probes       map[string][]probe
	queuedProbes atomic.Int64

	// Cached adaptive hedge delay: recomputing p95 snapshots per read would
	// put an allocation back on the hot path.
	hedgeCached atomic.Int64
	hedgeStamp  atomic.Int64
}

// NewCoordinator wires a coordinator. Records live under _id = self-key, so
// the records collection needs no secondary index; one that declares a
// self-key index was written by the previous layout (ObjectId _id) and is
// refused, because none of its rows can be reached by key.
func NewCoordinator(cfg Config, self string, rg *ring.Ring, tr transport.Transport, store *docstore.Store) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg: cfg, self: self, ring: rg, tr: tr, store: store,
		peers:      resilience.NewPeers(self, cfg.Now),
		budget:     resilience.NewRetryBudget(),
		putLatency: metrics.NewBucketedHistogram(nil),
		getLatency: metrics.NewBucketedHistogram(nil),
		repairQ:    make(chan repairJob, repairQueue),
		repairQuit: make(chan struct{}),
		probes:     make(map[string][]probe),
	}
	for _, field := range store.C(RecordCollection).Indexes() {
		if field == "self-key" {
			return nil, fmt.Errorf("nwr: collection %q declares a self-key index: it was written by the "+
				"previous record layout (ObjectId _id) and its rows cannot be read by key; "+
				"there is no migration, start this node on an empty data directory", RecordCollection)
		}
	}
	if err := store.C(HintCollection).EnsureIndex("target", false); err != nil {
		return nil, err
	}
	return c, nil
}

// Peers exposes this node's health verdict per peer; the cluster layer feeds
// it gossip's verdicts.
func (c *Coordinator) Peers() *resilience.Peers { return c.peers }

// PutLatency exposes the quorum-write latency histogram for registry
// registration.
func (c *Coordinator) PutLatency() *metrics.BucketedHistogram { return c.putLatency }

// GetLatency exposes the quorum-read latency histogram for registry
// registration.
func (c *Coordinator) GetLatency() *metrics.BucketedHistogram { return c.getLatency }

// Stats returns a snapshot of activity counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Coordinator) bump(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// nextVer assigns a write version: the wall clock, forced strictly
// monotonic per coordinator. Distinct writes therefore never share a
// (Ver, Origin) pair — the uniqueness last-write-wins needs to be a total
// order even when the clock is coarse or steps backwards.
func (c *Coordinator) nextVer() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.cfg.Now().UnixNano()
	if v <= c.lastVer {
		v = c.lastVer + 1
	}
	c.lastVer = v
	return v
}

// Put writes val under key with the configured write quorum. The paper's
// DELETE maps to Put with deleted=true: "just update the flag and not
// physically remove the record from disk".
func (c *Coordinator) Put(ctx context.Context, key string, val []byte) error {
	return c.write(ctx, Record{Key: key, Val: val, IsData: true, Ver: c.nextVer(), Origin: c.self})
}

// Delete tombstones key with the write quorum.
func (c *Coordinator) Delete(ctx context.Context, key string) error {
	return c.write(ctx, Record{Key: key, IsData: true, Deleted: true, Ver: c.nextVer(), Origin: c.self})
}

// write replicates rec to the key's N replica nodes concurrently and
// returns as soon as W replicas acknowledge (the Dynamo-style quorum return
// that makes "W = 1 ... low writing latency" true, §5.2.2); the remaining
// replications continue in the background. A replica that stays unreachable
// after retries receives a hint on the next ring node, which counts toward
// the sloppy quorum ("if one node fails, the system writes to the next node
// on the ring, makes each writing success").
func (c *Coordinator) write(ctx context.Context, rec Record) (err error) {
	ctx, sp := trace.Start(ctx, "nwr.write")
	start := c.cfg.Now()
	defer func() {
		c.putLatency.ObserveDuration(c.cfg.Now().Sub(start))
		sp.End(err)
	}()
	targets, err := c.ring.Successors(rec.Key, c.cfg.N)
	if err != nil {
		return err
	}
	// The fan-out must outlive the caller: once W replicas ack, the write
	// is acked and the remaining replications (plus any hint handoff) are
	// the system's obligation, not the caller's — a caller cancelling its
	// context right after the ack must not strand them. Each RPC stays
	// bounded by CallTimeout; only the quorum wait below honours ctx.
	bctx := context.WithoutCancel(ctx)
	acksCh := make(chan bool, len(targets))
	for _, target := range targets {
		transport.Go(func() {
			acksCh <- c.writeReplicaWithRecovery(bctx, targets, target, rec)
		})
	}
	acks := 0
	for done := 0; done < len(targets); done++ {
		select {
		case ok := <-acksCh:
			if ok {
				acks++
			}
		case <-ctx.Done():
			// The caller gave up waiting; the write is not acked to them
			// (replication may still complete in the background).
			c.bump(func(s *Stats) { s.PutFailures++ })
			return fmt.Errorf("%w: abandoned at %d/%d acks for key %q: %v",
				ErrQuorumWrite, acks, c.cfg.W, rec.Key, ctx.Err())
		}
		if acks >= c.cfg.W {
			// Quorum reached; the rest complete asynchronously.
			c.bump(func(s *Stats) { s.Puts++ })
			return nil
		}
	}
	c.bump(func(s *Stats) { s.PutFailures++ })
	return fmt.Errorf("%w: %d/%d acks for key %q", ErrQuorumWrite, acks, c.cfg.W, rec.Key)
}

// writeReplicaWithRecovery drives one replica write through its retry and
// hinted-handoff ladder, reporting whether the write was durably handled
// somewhere. Retries are spaced by jittered exponential backoff and gated
// on the retry budget; a call CallPeer refused because the peer is suspect
// or down ends the ladder — the write goes straight to the hint path on the
// next usable ring node.
func (c *Coordinator) writeReplicaWithRecovery(ctx context.Context, targets []string, target string, rec Record) (ok bool) {
	ctx, sp := trace.Start(ctx, "nwr.replica")
	sp.SetPeer(target)
	defer func() {
		if ok {
			sp.End(nil)
		} else {
			sp.End(errors.New("replica write failed"))
		}
	}()
	err := c.writeReplica(ctx, target, rec)
	for attempt := 0; err != nil && attempt < replicaRetries; attempt++ {
		if errors.Is(err, errPeerUnusable) || !c.budget.Spend() {
			break
		}
		if resilience.Sleep(ctx, resilience.Backoff(attempt)) != nil {
			break // caller gave up mid-backoff
		}
		c.bump(func(s *Stats) { s.RetriedReplicaWrites++ })
		err = c.writeReplica(ctx, target, rec)
	}
	if err == nil {
		return true
	}
	return c.storeHint(ctx, targets, target, rec)
}

// errPeerUnusable is CallPeer's refusal of a peer the view holds suspect or
// down.
var errPeerUnusable = fmt.Errorf("%w: peer suspect or down", transport.ErrUnreachable)

// CallPeer is the one RPC to another node: every coordinator path goes
// through it — writes, reads, hints, and through the cluster layer
// rebalance, Merkle anti-entropy and consensus — so the peer view decides
// for all of them alike. A peer held suspect or down is refused in
// microseconds with errPeerUnusable; every call's outcome feeds the view —
// a transport-level failure counts against the peer, while a remote
// application error proves it alive.
func (c *Coordinator) CallPeer(ctx context.Context, target, msgType string, body bson.D) (bson.D, error) {
	if !c.peers.Usable(target) {
		return nil, fmt.Errorf("%w: %s", errPeerUnusable, target)
	}
	cctx, cancel := context.WithTimeout(ctx, c.cfg.CallTimeout)
	defer cancel()
	resp, err := c.tr.Call(cctx, target, transport.Message{Type: msgType, Body: body})
	c.peers.Report(target, err == nil || transport.IsRemote(err))
	if err == nil {
		c.budget.Earn()
	}
	return resp, err
}

// writeReplica applies rec on target (locally or over the wire).
func (c *Coordinator) writeReplica(ctx context.Context, target string, rec Record) error {
	_, err := c.putReplica(ctx, target, []Record{rec})
	return err
}

// storeHint parks rec on the first usable node after the replica set,
// recording the intended target for later writeback (Fig 8: node C holds
// the replica and B's identifier).
func (c *Coordinator) storeHint(ctx context.Context, replicaSet []string, target string, rec Record) (ok bool) {
	ctx, sp := trace.Start(ctx, "nwr.hint")
	sp.SetPeer(target)
	defer func() {
		if ok {
			sp.End(nil)
		} else {
			sp.End(errors.New("no stand-in accepted the hint"))
		}
	}()
	exclude := make(map[string]bool, len(replicaSet)+1)
	for _, t := range replicaSet {
		exclude[t] = true
	}
	// Walk well beyond the replica set to find a stand-in.
	candidates, err := c.ring.Successors(rec.Key, c.cfg.N+len(exclude)+8)
	if err != nil {
		return false
	}
	body := bson.D{
		{Key: "target", Value: target},
		{Key: "record", Value: rec.ToDoc()},
	}
	for _, cand := range candidates {
		if exclude[cand] {
			continue
		}
		if cand == c.self {
			if err := c.storeHintLocal(ctx, target, rec); err == nil {
				c.bump(func(s *Stats) { s.HintsStored++ })
				return true
			}
			continue
		}
		// CallPeer refuses suspect and down candidates in microseconds, so
		// the walk settles on a live stand-in instead of burning a
		// CallTimeout per dead candidate.
		if _, err := c.CallPeer(ctx, cand, MsgHintStore, body); err == nil {
			c.bump(func(s *Stats) { s.HintsStored++ })
			return true
		}
	}
	return false
}

// ApplyLocal merges rec into this node's store under last-write-wins: it is
// stored unless the replica already holds a record that is not older.
func (c *Coordinator) ApplyLocal(rec Record) error {
	return c.ApplyLocalCtx(context.Background(), rec)
}

// ApplyLocalCtx is ApplyLocal carrying the caller's context so the store
// mutation (and its WAL commit wait) appears in the request's trace.
func (c *Coordinator) ApplyLocalCtx(ctx context.Context, rec Record) error {
	return c.applyLocal(ctx, rec, c.store.C(RecordCollection).PutIf)
}

// ApplyLocalUnsynced is ApplyLocalCtx without the wait for the store's WAL
// fsync (docstore.Collection.PutIfUnsynced): for the consensus tier, whose
// committed entries are durable in its own log and re-applied from it after
// a crash.
func (c *Coordinator) ApplyLocalUnsynced(ctx context.Context, rec Record) error {
	return c.applyLocal(ctx, rec, c.store.C(RecordCollection).PutIfUnsynced)
}

func (c *Coordinator) applyLocal(ctx context.Context, rec Record,
	putIf func(context.Context, bson.D, docstore.Cond) (bool, error)) (err error) {
	ctx, sp := trace.Start(ctx, "docstore.apply")
	defer func() { sp.End(err) }()
	if c.OnLocalOp != nil {
		if err := c.OnLocalOp("put", len(rec.Val)); err != nil {
			return err
		}
	}
	// One conditional put: the store shows the predicate the record it holds
	// with every other writer excluded, so of any number of concurrent
	// appliers of one key the newest lands last on this replica.
	_, err = putIf(ctx, rec.WithId(time.Time{}), func(stored bson.D) (bool, error) {
		if stored == nil {
			return true, nil
		}
		old, err := RecordFromDoc(stored)
		if err != nil {
			return false, err
		}
		return rec.Newer(old), nil // a stale write is dropped; last write wins
	})
	return err
}

// storeHintLocal parks a hint on this node.
func (c *Coordinator) storeHintLocal(ctx context.Context, target string, rec Record) error {
	if c.OnLocalOp != nil {
		if err := c.OnLocalOp("hint", len(rec.Val)); err != nil {
			return err
		}
	}
	_, err := c.store.C(HintCollection).InsertCtx(ctx, bson.D{
		{Key: "target", Value: target},
		{Key: "record", Value: rec.ToDoc()},
	})
	return err
}

// HintCount returns the number of hints currently parked on this node.
func (c *Coordinator) HintCount() int {
	return c.store.C(HintCollection).Len()
}

// hintPageSize bounds how many hints one writeback pass materializes at a
// time: the scan pages through the target index instead of loading the
// whole hint collection, so a long outage's backlog has bounded memory.
const hintPageSize = 128

// DeliverHints writes each hinted target's parked records back and drops
// the hints (Fig 8's writeback). Each target is simply tried: the peer view
// refuses a suspect or down one in microseconds, and once a suspect
// target's window ends the page write is its probe. Tick calls it.
func (c *Coordinator) DeliverHints(ctx context.Context) {
	targets, err := c.store.C(HintCollection).Distinct("target", docstore.Filter{})
	if err != nil {
		return
	}
	for _, tv := range targets {
		if target, ok := tv.(string); ok && target != "" {
			c.deliverHintsTo(ctx, target)
		}
	}
}

// deliverHintsTo drains target's hint queue in pages via the target index.
// Delivered hints leave the collection, so each pass re-reads the first
// page; the loop stops when the queue is empty or a writeback fails.
func (c *Coordinator) deliverHintsTo(ctx context.Context, target string) {
	coll := c.store.C(HintCollection)
	filter := docstore.Filter{{Key: "target", Value: target}}
	for {
		page, err := coll.Find(filter, docstore.FindOptions{Limit: hintPageSize})
		if err != nil || len(page) == 0 {
			return
		}
		skipped := 0
		ids := make([]any, 0, len(page))
		recs := make([]Record, 0, len(page))
		for _, h := range page {
			id, hasID := h.Get("_id")
			recDoc, ok := h.Get("record")
			d, isDoc := recDoc.(bson.D)
			if !ok || !isDoc {
				// A malformed hint can never deliver; drop it rather than
				// let it wedge the queue (and the paging loop) forever.
				if hasID {
					coll.Delete(id) //nolint:errcheck
				}
				continue
			}
			rec, err := RecordFromDoc(d)
			if err != nil {
				if hasID {
					coll.Delete(id) //nolint:errcheck
				}
				continue
			}
			if c.SkipHint != nil && c.SkipHint(rec) {
				skipped++ // stays parked; a later pass retries
				continue
			}
			ids = append(ids, id)
			recs = append(recs, rec)
		}
		// The page rides batched writes. Only hints whose records the target
		// applied leave the collection; the rest stay parked, and redelivery
		// is idempotent under last-write-wins. A pass racing this one may
		// have removed a hint already: only the delete that removes it counts
		// it delivered.
		acked, ok := c.WriteRecords(ctx, target, recs)
		delivered := 0
		for _, id := range ids[:acked] {
			if removed, err := coll.Delete(id); err == nil && removed {
				delivered++
			}
		}
		c.bump(func(s *Stats) { s.HintsDelivered += int64(delivered) })
		if !ok {
			if delivered == 0 {
				return
			}
			// The target is up and applied part of the page before a
			// record failed: resend the rest now rather than back off.
			continue
		}
		if len(page) < hintPageSize {
			return
		}
		if len(recs) == 0 && skipped > 0 {
			// A full page of consensus-guarded hints would re-read the same
			// page forever; stop and let a later pass retry after failover.
			return
		}
	}
}

// HandleMessage serves the replica-side protocol; the cluster mux routes
// nwr.* messages here.
func (c *Coordinator) HandleMessage(ctx context.Context, msg transport.Message) (bson.D, error) {
	switch msg.Type {
	case MsgPutReplica:
		return c.handlePutReplica(ctx, msg.Body)
	case MsgGetReplica:
		return c.handleGetReplica(msg.Body)
	case MsgHintStore:
		target := msg.Body.StringOr("target", "")
		recDoc, ok := msg.Body.Get("record")
		d, isDoc := recDoc.(bson.D)
		if !ok || !isDoc || target == "" {
			return nil, errors.New("nwr: malformed hint")
		}
		rec, err := RecordFromDoc(d)
		if err != nil {
			return nil, err
		}
		if err := c.storeHintLocal(ctx, target, rec); err != nil {
			return nil, err
		}
		return bson.D{{Key: "ok", Value: true}}, nil
	default:
		return nil, fmt.Errorf("nwr: unknown message type %q", msg.Type)
	}
}
