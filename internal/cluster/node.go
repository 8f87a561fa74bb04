// Package cluster assembles MyStore's storage module (paper §5): each Node
// couples a local document store (the clustered MongoDB instance), an NWR
// replication coordinator, a gossip endpoint and a transport into one
// process. Nodes learn membership through gossip, maintain their own view
// of the consistent-hash ring, migrate data when nodes join, re-replicate
// when seeds confirm a long failure, and deliver parked hints when a
// short-failed node returns.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mystore/internal/bson"
	"mystore/internal/consensus"
	"mystore/internal/docstore"
	"mystore/internal/gossip"
	"mystore/internal/nwr"
	"mystore/internal/resilience"
	"mystore/internal/ring"
	"mystore/internal/trace"
	"mystore/internal/transport"
)

// Message types a Node serves beyond the embedded nwr.* and gossip.* sets.
const (
	MsgVersion    = "node.version"
	MsgPut        = "node.put"
	MsgGet        = "node.get"
	MsgGetMany    = "node.get.many"
	MsgDelete     = "node.delete"
	MsgQuery      = "node.query"
	MsgStatus     = "node.status"
	MsgQueryLocal = "node.query.local"
	MsgAggregate  = "node.aggregate"
)

// Version is the engine version string the Connect test queries, mirroring
// the paper's use of MongoDB's getversion interface for connection testing.
const Version = "mystore-1.0"

// Config assembles a Node.
type Config struct {
	// Seeds are the seed node addresses (paper Fig 7). A node whose own
	// address is listed acts as a seed.
	Seeds []string
	// Weight sizes this node's virtual-node count relative to others.
	Weight int
	// NWR is the replication configuration; the evaluation uses (3,2,1).
	// Its CallTimeout (default 2s) bounds every replica RPC and every
	// consensus RPC but a vote.
	NWR nwr.Config
	// StoreDir holds the local document store and, with StrongRanges, the
	// consensus log. Empty gives the node a scratch directory that goes when
	// the node closes or is killed, so a restart comes back empty.
	StoreDir string
	// Store tunes the local document store beyond the directory: WAL
	// durability and group commit, storage engine. Its Dir field is
	// ignored — StoreDir wins.
	Store docstore.Options
	// GossipInterval is the gossip tick period (default 1s).
	GossipInterval time.Duration
	// Seed, when non-zero, seeds the node's background-work RNG (anti-entropy
	// peer selection) so chaos and ablation runs are reproducible. Zero keeps
	// the process-global RNG.
	Seed int64
	// Tracer, when non-nil, is this node's trace collector. Transports that
	// support it (TCP) join incoming on-wire trace ids against it, so a
	// networked node's spans correlate with the originating gateway trace.
	// In-process clusters don't need one: the simulated network passes the
	// caller's context — and with it the gateway's collector — straight
	// through.
	Tracer *trace.Collector
	// StrongRanges, when > 0, enables the CP replication tier: the ring-hash
	// space is cut into this many ranges, each replicated by a consensus
	// group over its first NWR.N clockwise owners. Requests carrying
	// consistency=strong route through the range leader's replicated log
	// instead of the NWR quorum path. Zero leaves the tier off.
	StrongRanges int
	// StrongElectionTimeout is the consensus election timeout base (see
	// consensus.Options.ElectionTimeout). Zero takes the default.
	StrongElectionTimeout time.Duration
	// Now injects a clock for deterministic simulations.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.NWR.Now == nil {
		c.NWR.Now = c.Now
	}
	if c.NWR.CallTimeout <= 0 {
		c.NWR.CallTimeout = 2 * time.Second
	}
	return c
}

// Node is one MyStore storage process.
type Node struct {
	cfg   Config
	tr    transport.Transport
	store *docstore.Store
	ring  *ring.Ring
	// pinned holds every node that ever joined this node's ring; a long
	// failure shrinks ring but not pinned. The consensus tier derives each
	// range's replica set from it, because until reconfiguration exists a
	// range's membership must not move with the ring.
	pinned   *ring.Ring
	gossiper *gossip.Gossiper
	coord    *nwr.Coordinator
	cns      *consensus.Manager // nil unless cfg.StrongRanges > 0
	// ringFp is ringFingerprint of ring, kept with it under mu; every
	// eventual get, put and delete answer carries it (Client.checkRing).
	ringFp atomic.Int64

	// rng drives anti-entropy peer selection; seeded from cfg.Seed for
	// reproducible runs. Guarded by mu.
	rng *rand.Rand
	// ae holds the incrementally maintained Merkle forest (one tree per
	// peer) behind anti-entropy.
	ae aeState

	// Anti-entropy instrumentation (see antientropy.go).
	aeRounds         atomic.Int64
	aeDigestBytes    atomic.Int64
	aeLeavesDiverged atomic.Int64
	aeRegressions    atomic.Int64

	mu                 sync.Mutex
	closed             bool
	rebalanceWanted    bool
	rebalanceNotBefore time.Time // retry cool-down after an incomplete pass
	tickCount          uint64
	compacting         atomic.Bool    // a forced compaction is in flight
	compactWG          sync.WaitGroup // Close and Kill wait for it
}

// compactStore is Tick's forced compaction; a test holds one in flight.
var compactStore = (*docstore.Store).Compact

// NewNode builds and starts serving a node on tr. The node immediately
// answers RPCs; call Tick (or RunLoop) to participate in gossip.
func NewNode(tr transport.Transport, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	storeOpts := cfg.Store
	storeOpts.Dir = cfg.StoreDir
	store, err := docstore.Open(storeOpts)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:    cfg,
		tr:     tr,
		store:  store,
		ring:   ring.New(),
		pinned: ring.New(),
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = rand.Int63() // unseeded runs stay random
	}
	n.rng = rand.New(rand.NewSource(seed))
	n.gossiper = gossip.New(tr, gossip.Config{
		Seeds:    cfg.Seeds,
		Interval: cfg.GossipInterval,
		Now:      cfg.Now,
		OnEvent:  n.onGossipEvent,
	})
	n.coord, err = nwr.NewCoordinator(cfg.NWR, tr.Addr(), n.ring, tr, store)
	if err != nil {
		store.Close()
		return nil, err
	}
	// Maintain the anti-entropy Merkle forest incrementally on every record
	// apply (and trip the version-regression invariant if a repair path ever
	// goes backwards). WAL replay already ran in Open, so the forest starts
	// unbuilt and the first round's scan covers restart data.
	store.C(nwr.RecordCollection).SetApplyObserver(n.observeRecordApply)
	// Join the ring locally and announce capacity through gossip so peers
	// add us with the right weight.
	if err := n.addToRing(tr.Addr(), cfg.Weight); err != nil {
		store.Close()
		return nil, err
	}
	n.gossiper.SetLocal("weight", strconv.Itoa(cfg.Weight))
	if cfg.StrongRanges > 0 {
		if err := n.startConsensus(); err != nil {
			store.Close()
			return nil, err
		}
	}
	if cfg.Tracer != nil {
		if ts, ok := tr.(interface{ SetTracer(*trace.Collector) }); ok {
			ts.SetTracer(cfg.Tracer)
		}
	}
	tr.SetHandler(n.handleMessage)
	return n, nil
}

// Tracer returns the node-local trace collector (nil unless configured).
func (n *Node) Tracer() *trace.Collector { return n.cfg.Tracer }

// Addr returns the node's address.
func (n *Node) Addr() string { return n.tr.Addr() }

// Store exposes the local document store (tests, tooling).
func (n *Node) Store() *docstore.Store { return n.store }

// Coordinator exposes the NWR coordinator (tests, stats).
func (n *Node) Coordinator() *nwr.Coordinator { return n.coord }

// Gossiper exposes the gossip endpoint (tests, stats).
func (n *Node) Gossiper() *gossip.Gossiper { return n.gossiper }

// Ring exposes this node's membership view.
func (n *Node) Ring() *ring.Ring { return n.ring }

// Breakers exposes the node's health verdict per peer (the coordinator's
// peer view).
func (n *Node) Breakers() *resilience.Peers { return n.coord.Peers() }

func (n *Node) addToRing(addr string, weight int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring.Contains(addr) {
		return nil
	}
	for _, r := range []*ring.Ring{n.ring, n.pinned} {
		if err := r.AddNode(ring.Node{ID: addr, Weight: weight}); err != nil && !errors.Is(err, ring.ErrNodeExists) {
			return err
		}
	}
	n.ringFp.Store(ringFingerprint(n.ring.Nodes()))
	n.rebalanceWanted = true
	n.rebalanceNotBefore = time.Time{} // a real ring change rebalances now
	n.ae.markDirty()                   // ownership moved; the Merkle forest must be rebuilt
	return nil
}

// pin adds addr to the pinned ring only.
func (n *Node) pin(addr string, weight int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pinned.AddNode(ring.Node{ID: addr, Weight: weight}) //nolint:errcheck // ErrNodeExists: already pinned
}

func (n *Node) removeFromRing(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring.RemoveNode(addr) != nil {
		return // not a member
	}
	n.ringFp.Store(ringFingerprint(n.ring.Nodes()))
	n.rebalanceWanted = true
	n.rebalanceNotBefore = time.Time{}
	n.ae.markDirty()
}

// onGossipEvent feeds the seeds' long-failure verdict into the peer view
// and the ring: a long-failed peer is down, out of the ring, and its data
// re-replicated. A returning node is up again, gets its parked writes back
// (Fig 8) on the next Tick and rejoins the ring on the next sync. A short
// failure is never gossip's verdict: only failed calls make a peer suspect.
func (n *Node) onGossipEvent(e gossip.Event) {
	peers := n.coord.Peers()
	switch e.New {
	case gossip.StatusLongFail:
		peers.Down(e.Addr)
		n.removeFromRing(e.Addr)
	case gossip.StatusUp:
		peers.Up(e.Addr)
	}
}

// members lists the ring's members, this node included, in address order:
// the nodes this one treats as live, since a long failure leaves the ring.
func (n *Node) members() []string {
	nodes := n.ring.Nodes()
	addrs := make([]string, len(nodes))
	for i, m := range nodes {
		addrs[i] = m.ID
	}
	return addrs
}

// Tick drives one round of background work: gossip, membership sync, hint
// delivery, any pending rebalance, and (every tenth tick) an anti-entropy
// round with a random peer.
func (n *Node) Tick(ctx context.Context) {
	n.gossiper.Tick(ctx)
	n.syncMembership()
	n.coord.DeliverHints(ctx)
	n.mu.Lock()
	wanted := n.rebalanceWanted && !n.cfg.Now().Before(n.rebalanceNotBefore)
	if wanted {
		n.rebalanceWanted = false
	}
	n.tickCount++
	aeDue := n.tickCount%10 == 0
	// A forced memtable flush checkpoints the WAL, bounding the tail a
	// restart replays. It runs off the tick, one at a time, so a slow flush
	// stalls neither gossip, hints, rebalance nor anti-entropy.
	compact := n.tickCount%600 == 0 && !n.closed && n.compacting.CompareAndSwap(false, true)
	if compact {
		n.compactWG.Add(1) // under mu, so Close's Wait never races an Add
	}
	n.mu.Unlock()
	if compact {
		go func() {
			defer n.compactWG.Done()
			defer n.compacting.Store(false)
			compactStore(n.store) //nolint:errcheck // best-effort; the WAL remains authoritative
		}()
	}
	if wanted {
		n.Rebalance(ctx)
	}
	if aeDue {
		n.AntiEntropyRound(ctx)
	}
}

// syncMembership folds gossip knowledge into the local ring views: every
// endpoint that has announced a weight is pinned, and a member of the ring
// unless it is long-failed. A node restarted empty thus pins a member that
// died before it came back, as the nodes that created the range groups did.
func (n *Node) syncMembership() {
	for _, addr := range n.gossiper.Endpoints() {
		longFailed := n.gossiper.StatusOf(addr) == gossip.StatusLongFail
		if longFailed {
			n.removeFromRing(addr)
		}
		w, ok := n.gossiper.Lookup(addr, "weight")
		if !ok {
			continue
		}
		weight, err := strconv.Atoi(w)
		if err != nil || weight <= 0 {
			weight = 1
		}
		if longFailed {
			n.pin(addr, weight)
		} else {
			n.addToRing(addr, weight) //nolint:errcheck // best-effort; next tick retries
		}
	}
}

// RunLoop ticks until ctx is cancelled.
func (n *Node) RunLoop(ctx context.Context) {
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n.Tick(ctx)
		}
	}
}

// handleMessage is the node's transport mux.
func (n *Node) handleMessage(ctx context.Context, msg transport.Message) (bson.D, error) {
	switch {
	case strings.HasPrefix(msg.Type, "gossip."):
		return n.gossiper.HandleMessage(ctx, msg)
	case strings.HasPrefix(msg.Type, "nwr."):
		return n.coord.HandleMessage(ctx, msg)
	case strings.HasPrefix(msg.Type, "cns."):
		if n.cns == nil {
			return nil, consensus.ErrDisabled
		}
		return n.cns.HandleMessage(msg.Type, msg.Body)
	}
	switch msg.Type {
	case MsgVersion:
		members := n.ring.Nodes()
		arr := make(bson.A, len(members))
		for i, m := range members {
			arr[i] = bson.D{{Key: "addr", Value: m.ID}, {Key: "weight", Value: int64(m.Weight)}}
		}
		return bson.D{{Key: "version", Value: Version}, {Key: "addr", Value: n.Addr()}, {Key: "ring", Value: arr}}, nil
	case MsgStatus:
		return n.statusDoc(), nil
	case MsgPut:
		key := msg.Body.StringOr("self-key", "")
		val, _ := msg.Body.Get("val")
		b, ok := val.([]byte)
		if key == "" || !ok {
			return nil, errors.New("cluster: put requires self-key and binary val")
		}
		if msg.Body.StringOr("consistency", "") == "strong" {
			err := n.StrongPut(ctx, key, b)
			if err != nil {
				return nil, err
			}
			return n.strongReply(bson.E{Key: "ok", Value: true}), nil
		}
		if err := n.coord.Put(ctx, key, b); err != nil {
			return nil, err
		}
		return n.eventualReply(bson.E{Key: "ok", Value: true}), nil
	case MsgGet:
		key := msg.Body.StringOr("self-key", "")
		if msg.Body.StringOr("consistency", "") == "strong" {
			val, err := n.StrongGet(ctx, key)
			if errors.Is(err, consensus.ErrNotFound) {
				return n.strongReply(bson.E{Key: "found", Value: false}), nil
			}
			if err != nil {
				return nil, err
			}
			return n.strongReply(bson.E{Key: "found", Value: true}, bson.E{Key: "val", Value: val}), nil
		}
		val, err := n.coord.Get(ctx, key)
		if errors.Is(err, nwr.ErrNotFound) {
			return n.eventualReply(bson.E{Key: "found", Value: false}), nil
		}
		if err != nil {
			return nil, err
		}
		return n.eventualReply(bson.E{Key: "found", Value: true}, bson.E{Key: "val", Value: val}), nil
	case MsgGetMany:
		return n.handleGetMany(ctx, msg.Body)
	case MsgDelete:
		key := msg.Body.StringOr("self-key", "")
		if msg.Body.StringOr("consistency", "") == "strong" {
			err := n.StrongDelete(ctx, key)
			if err != nil {
				return nil, err
			}
			return n.strongReply(bson.E{Key: "ok", Value: true}), nil
		}
		if err := n.coord.Delete(ctx, key); err != nil {
			return nil, err
		}
		return n.eventualReply(bson.E{Key: "ok", Value: true}), nil
	case MsgQuery:
		return n.handleQuery(ctx, msg.Body)
	case MsgQueryLocal:
		return n.handleQueryLocal(msg.Body)
	case MsgAERow:
		return n.handleAERow(msg.Body)
	case MsgAELeaf:
		return n.handleAELeaf(msg.Body)
	case MsgAggregate:
		return n.handleAggregate(ctx, msg.Body)
	default:
		return nil, fmt.Errorf("cluster: unknown message type %q", msg.Type)
	}
}

// eventualReply is the answer to a served eventual get, put or delete. It
// carries this node's ring fingerprint, so a client routing by a stale ring
// learns of it (Client.checkRing).
func (n *Node) eventualReply(fields ...bson.E) bson.D {
	return append(bson.D(fields), bson.E{Key: "ringFp", Value: n.ringFp.Load()})
}

// ringFingerprint names a ring membership: FNV-64a over its (addr, weight)
// pairs in address order, as ring.Nodes lists them.
func ringFingerprint(members []ring.Node) int64 {
	h := fnv.New64a()
	for _, m := range members {
		fmt.Fprintf(h, "%s=%d;", m.ID, m.Weight)
	}
	return int64(h.Sum64())
}

// handleGetMany serves MsgGetMany: this node coordinates a batched quorum
// read over every requested key (one nwr.get.replica per peer). Each
// result entry carries found/val; a key whose quorum failed carries its
// error instead, so callers can tell "absent" from "unreadable".
func (n *Node) handleGetMany(ctx context.Context, body bson.D) (bson.D, error) {
	kv, _ := body.Get("keys")
	arr, ok := kv.(bson.A)
	if !ok {
		return nil, errors.New("cluster: get.many requires keys")
	}
	keys := make([]string, len(arr))
	for i, v := range arr {
		if keys[i], ok = v.(string); !ok {
			return nil, fmt.Errorf("cluster: get.many key %d is %T, want string", i, v)
		}
	}
	results, err := n.coord.GetMany(ctx, keys)
	if err != nil {
		return nil, err
	}
	out := make(bson.A, 0, len(results))
	for _, kr := range results {
		entry := bson.D{{Key: "self-key", Value: kr.Key}}
		switch {
		case kr.Err == nil:
			entry = append(entry,
				bson.E{Key: "found", Value: true},
				bson.E{Key: "val", Value: kr.Val})
		case errors.Is(kr.Err, nwr.ErrNotFound):
			entry = append(entry, bson.E{Key: "found", Value: false})
		default:
			entry = append(entry,
				bson.E{Key: "found", Value: false},
				bson.E{Key: "err", Value: kr.Err.Error()})
		}
		out = append(out, entry)
	}
	return bson.D{{Key: "results", Value: out}}, nil
}

// statusDoc summarizes the node for monitoring.
func (n *Node) statusDoc() bson.D {
	st := n.store.Stats()
	cs := n.coord.Stats()
	live := n.members()
	liveArr := make(bson.A, len(live))
	for i, a := range live {
		liveArr[i] = a
	}
	doc := bson.D{
		{Key: "addr", Value: n.Addr()},
		{Key: "records", Value: int64(n.store.C(nwr.RecordCollection).Len())},
		{Key: "hints", Value: int64(n.coord.HintCount())},
		{Key: "documents", Value: int64(st.Documents)},
		{Key: "dataBytes", Value: st.DataBytes},
		{Key: "puts", Value: cs.Puts},
		{Key: "gets", Value: cs.Gets},
		{Key: "ringSize", Value: int64(n.ring.Len())},
		{Key: "live", Value: liveArr},
		{Key: "isSeed", Value: n.gossiper.IsSeed()},
		{Key: "breakersOpen", Value: int64(n.coord.Peers().NotUp())},
		{Key: "breakerFastFails", Value: n.coord.Peers().Stats().FastFailures},
	}
	if n.cns != nil {
		st := n.cns.Stats()
		doc = append(doc,
			bson.E{Key: "strongRangesLed", Value: int64(st.RangesLed)},
			bson.E{Key: "strongProposals", Value: st.Proposals},
			bson.E{Key: "strongReads", Value: st.StrongReads},
		)
	}
	return doc
}

// Kill abandons the node as an abrupt process death (kill -9) would: the
// endpoint stops answering, and the store crashes without flushing or
// fsyncing — in-flight memtable flushes and compactions are left torn on
// disk. A replacement node must recover from the directory state alone.
// The chaos harness uses it to exercise storage recovery invariants.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.tr.Close()
	if n.cns != nil {
		n.cns.Kill() // abandon the consensus WAL unsynced, like the store
	}
	n.coord.Close()
	n.store.Crash()
	n.compactWG.Wait() // a crashed engine ends its flush waits at once
}

// Close stops serving and closes the local store.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	terr := n.tr.Close()
	if n.cns != nil {
		n.cns.Close()
	}
	n.coord.Close()
	n.compactWG.Wait()
	serr := n.store.Close()
	if terr != nil {
		return terr
	}
	return serr
}
