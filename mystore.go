// Package mystore is the public API of MyStore, a highly available
// distributed storage system for unstructured data: a Dynamo-style layer —
// consistent hashing with virtual nodes, NWR quorum replication, push-pull
// gossip, hinted handoff — over a clustered MongoDB-like document store,
// with MongoDB-grade query capability retained.
//
// Two deployment styles are supported:
//
//   - In-process clusters (StartCluster) run every node inside one process
//     over a simulated network. Examples, tests and the paper-reproduction
//     benchmarks use this form: it is deterministic and laptop-scale.
//   - Networked clusters (ListenNode + Connect) run each node as a TCP
//     server, which is what cmd/mystore-server and cmd/mystore-cli drive.
//
// A minimal session:
//
//	cl, _ := mystore.StartCluster(mystore.ClusterOptions{Nodes: 5})
//	defer cl.Close()
//	client, _ := cl.Client()
//	client.Put(ctx, "Resistor5", []byte("<component .../>"))
//	val, _ := client.Get(ctx, "Resistor5")
package mystore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mystore/internal/bson"
	"mystore/internal/cluster"
	"mystore/internal/docstore"
	"mystore/internal/lsm"
	"mystore/internal/metrics"
	"mystore/internal/nwr"
	"mystore/internal/trace"
	"mystore/internal/transport"
	"mystore/internal/wal"
)

// Re-exported document and query types, so applications need only this
// package.
type (
	// Document is an ordered BSON document.
	Document = bson.D
	// E is one document element.
	E = bson.E
	// A is a BSON array value.
	A = bson.A
	// Filter is a query filter in the MongoDB shell dialect
	// ($eq/$ne/$gt/$gte/$lt/$lte/$in/$nin/$exists/$regex/$and/$or/$not).
	Filter = docstore.Filter
	// FindOptions shape query results (sort, skip, limit, projection).
	FindOptions = docstore.FindOptions
	// SortField names a sort key and direction.
	SortField = docstore.SortField
	// QueryResult is one distributed-query match.
	QueryResult = cluster.QueryResult
	// GroupSpec describes a distributed aggregation (group-by field plus
	// accumulators).
	GroupSpec = docstore.GroupSpec
	// AccumulatorSpec is one aggregation output.
	AccumulatorSpec = docstore.AccumulatorSpec
	// Client performs Put/Get/Delete/Query against a cluster.
	Client = cluster.Client
	// ClientOptions carry connection parameters (timeouts, auto-retry).
	ClientOptions = cluster.ClientOptions
	// Node is one storage node.
	Node = cluster.Node
	// MetricsRegistry is the central metric catalog subsystems register
	// into; serve it at /metrics via GatewayOptions.Metrics.
	MetricsRegistry = metrics.Registry
	// TraceCollector gathers per-request traces; install it via
	// GatewayOptions.Trace and read it back at /debug/traces.
	TraceCollector = trace.Collector
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewTraceCollector returns a trace collector. Traces at least slowThreshold
// long are additionally written to the slow-op log; zero disables the log
// but still collects traces.
func NewTraceCollector(slowThreshold time.Duration) *TraceCollector {
	return trace.NewCollector(trace.Config{SlowThreshold: slowThreshold})
}

// Aggregation accumulator kinds, re-exported for GroupSpec construction.
const (
	AccCount = docstore.AccCount
	AccSum   = docstore.AccSum
	AccAvg   = docstore.AccAvg
	AccMin   = docstore.AccMin
	AccMax   = docstore.AccMax
)

// ClusterOptions configure an in-process cluster.
type ClusterOptions struct {
	// Nodes is the cluster size. The paper's testbed uses 5. The first node
	// is the one gossip seed, matching the paper's one seed DB node.
	Nodes int
	// N, W, R are the replication factor and quorums (default 3, 2, 1 —
	// the paper's evaluation setting).
	N, W, R int
	// Weights, when non-nil, returns the capacity weight for node i
	// (default: all 1).
	Weights func(i int) int
	// LatencyBase and Bandwidth shape the simulated LAN: per-message
	// latency plus size/bandwidth transfer time. Zero base means no
	// simulated latency.
	LatencyBase time.Duration
	Bandwidth   float64 // bytes per second; 0 means infinite
	// GossipInterval is the background tick period (default 200ms for
	// in-process clusters).
	GossipInterval time.Duration
	// DataDir, when set, persists node stores under DataDir/node-<i>: a WAL
	// plus log-structured SSTables behind a memtable, whose resident memory is
	// bounded by the memtable and block-cache budgets and whose restart
	// replays only the WAL tail past the last flush. Empty runs the same
	// store in a scratch directory per node, removed when the node closes or
	// is killed, so a node restarted after a crash comes back empty.
	DataDir string
	// Durable makes every store mutation fsync before acknowledging
	// (wal SyncEveryAppend). Concurrent writers share fsyncs through WAL
	// group commit.
	Durable bool
	// DisableHints turns hinted handoff off (ablation benches).
	DisableHints bool
	// ReplicaCallTimeout bounds each replica RPC (default 2s). Chaos and
	// fault experiments shorten it so dead peers are detected quickly.
	ReplicaCallTimeout time.Duration
	// Seed, when non-zero, seeds every node's background RNG (anti-entropy
	// peer selection) with Seed+i, making repair schedules reproducible.
	Seed int64
	// MemtableBytes sizes the lsm write buffer per node (default 4 MiB).
	MemtableBytes int64
	// StrongRanges, when > 0, turns on the CP replication tier: the ring's
	// hash space is split into this many contiguous ranges, each replicated
	// through a leader-leased consensus log. Requests then choose per call:
	// eventual (default, NWR quorums) or strong (linearizable through the
	// range leader). 0 leaves the tier off.
	StrongRanges int
	// StrongElectionTimeout is the consensus election timeout (default
	// 150ms); heartbeats run at a third of it, and a leader serves local
	// strong reads for one timeout after its latest quorum round trip.
	StrongElectionTimeout time.Duration
}

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.Nodes <= 0 {
		o.Nodes = 5
	}
	o.N, o.W, o.R = quorumDefaults(o.N, o.W, o.R)
	if o.GossipInterval <= 0 {
		o.GossipInterval = 200 * time.Millisecond
	}
	return o
}

// quorumDefaults replaces each unset replication setting with the paper's
// evaluation setting, (N, W, R) = (3, 2, 1).
func quorumDefaults(n, w, r int) (int, int, int) {
	if n <= 0 {
		n = 3
	}
	if w <= 0 {
		w = 2
	}
	if r <= 0 {
		r = 1
	}
	return n, w, r
}

// Cluster is an in-process MyStore cluster.
type Cluster struct {
	opts ClusterOptions
	net  *transport.MemNetwork

	mu    sync.Mutex // guards eps, nodes, addrs against AddNode
	eps   []*transport.MemTransport
	nodes []*cluster.Node
	addrs []string

	seeds []string
	stop  context.CancelFunc
	done  chan struct{}
}

// members returns a consistent snapshot of the cluster's endpoints and
// nodes.
func (c *Cluster) members() ([]*transport.MemTransport, []*cluster.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*transport.MemTransport(nil), c.eps...),
		append([]*cluster.Node(nil), c.nodes...)
}

// StartCluster boots an in-process cluster, runs gossip in the background
// and waits briefly for membership to converge.
func StartCluster(opts ClusterOptions) (*Cluster, error) {
	opts = opts.withDefaults()
	c := &Cluster{
		opts: opts,
		net:  transport.NewMemNetwork(),
		done: make(chan struct{}),
	}
	if opts.LatencyBase > 0 || opts.Bandwidth > 0 {
		c.net.SetLatencyModel(transport.LANLatency(opts.LatencyBase, opts.Bandwidth))
	}
	for i := 0; i < opts.Nodes; i++ {
		c.addrs = append(c.addrs, nodeAddr(i))
	}
	c.seeds = []string{c.addrs[0]}
	for i := 0; i < opts.Nodes; i++ {
		if _, err := c.startNode(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	go c.run(ctx)
	c.WaitConverged(5 * time.Second)
	return c, nil
}

func nodeAddr(i int) string { return fmt.Sprintf("10.0.0.%d:19870", i+1) }

func (c *Cluster) nodeConfig(i int) cluster.Config {
	weight := 1
	if c.opts.Weights != nil {
		if w := c.opts.Weights(i); w > 0 {
			weight = w
		}
	}
	dir := ""
	if c.opts.DataDir != "" {
		dir = fmt.Sprintf("%s/node-%d", c.opts.DataDir, i)
	}
	seed := int64(0)
	if c.opts.Seed != 0 {
		seed = c.opts.Seed + int64(i)
	}
	return cluster.Config{
		Seeds:  c.seeds,
		Weight: weight,
		NWR: nwr.Config{
			N: c.opts.N, W: c.opts.W, R: c.opts.R,
			DisableHints: c.opts.DisableHints,
			CallTimeout:  c.opts.ReplicaCallTimeout,
		},
		Seed:                  seed,
		StrongRanges:          c.opts.StrongRanges,
		StrongElectionTimeout: c.opts.StrongElectionTimeout,
		StoreDir:              dir,
		Store: docstore.Options{
			WAL:     wal.Options{SyncEveryAppend: c.opts.Durable},
			Storage: lsm.Tuning{MemtableBytes: c.opts.MemtableBytes},
		},
		GossipInterval: c.opts.GossipInterval,
	}
}

func (c *Cluster) startNode(i int) (*cluster.Node, error) {
	ep, err := c.net.Endpoint(c.addrs[i])
	if err != nil {
		return nil, err
	}
	node, err := cluster.NewNode(ep, c.nodeConfig(i))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.eps = append(c.eps, ep)
	c.nodes = append(c.nodes, node)
	c.mu.Unlock()
	return node, nil
}

// run ticks every live node until the cluster closes.
func (c *Cluster) run(ctx context.Context) {
	defer close(c.done)
	t := time.NewTicker(c.opts.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			eps, nodes := c.members()
			for i, n := range nodes {
				if !eps[i].Closed() {
					n.Tick(ctx)
				}
			}
		}
	}
}

// WaitConverged blocks until every live node's ring contains every live
// node, or the timeout passes. It returns whether convergence was reached.
func (c *Cluster) WaitConverged(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		eps, nodes := c.members()
		live := 0
		for i := range nodes {
			if !eps[i].Closed() {
				live++
			}
		}
		converged := true
		for i, n := range nodes {
			if eps[i].Closed() {
				continue
			}
			if n.Ring().Len() < live {
				converged = false
				break
			}
		}
		if converged {
			return true
		}
		time.Sleep(c.opts.GossipInterval / 2)
	}
	return false
}

// Client connects a new client to the cluster, performing the paper's
// connection test against the nodes.
func (c *Cluster) Client() (*Client, error) {
	return c.ClientWithOptions(cluster.ClientOptions{AutoRetry: true})
}

// ClientWithOptions connects a client with explicit options (timeouts,
// auto-retry).
func (c *Cluster) ClientWithOptions(opts ClientOptions) (*Client, error) {
	ep, err := c.net.Endpoint(fmt.Sprintf("client-%d:0", len(c.net.Addresses())))
	if err != nil {
		return nil, err
	}
	return cluster.Connect(context.Background(), ep, c.Addrs(), opts)
}

// Addrs returns the node addresses.
func (c *Cluster) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.addrs...)
}

// Nodes returns the node handles (inspection, stats).
func (c *Cluster) Nodes() []*cluster.Node {
	_, nodes := c.members()
	return nodes
}

// RegisterMetrics adds every node's subsystem metrics (WAL, store, NWR,
// gossip, peer view, transport) to r, one labeled source per node. Call it
// once after StartCluster; nodes added later register via their own
// RegisterMetrics.
func (c *Cluster) RegisterMetrics(r *MetricsRegistry) {
	for _, n := range c.Nodes() {
		n.RegisterMetrics(r)
	}
}

// Network exposes the simulated network for fault injection.
func (c *Cluster) Network() *transport.MemNetwork { return c.net }

// StopNode simulates a breakdown of node i: it stops answering and
// originating traffic but keeps its data.
func (c *Cluster) StopNode(i int) {
	eps, _ := c.members()
	if i >= 0 && i < len(eps) {
		eps[i].Close()
	}
}

// RestartNode brings a stopped node back online with its data intact.
func (c *Cluster) RestartNode(i int) {
	eps, _ := c.members()
	if i >= 0 && i < len(eps) {
		eps[i].Reopen()
	}
}

// CrashNode simulates a hard process crash of node i: the node stops
// serving and its store is torn down. With a DataDir configured its WAL and
// tables stay on disk, so RestartNodeFresh can recover it; without one its
// scratch directory is removed and the node's local data is gone.
func (c *Cluster) CrashNode(i int) error {
	eps, nodes := c.members()
	if i < 0 || i >= len(nodes) {
		return fmt.Errorf("mystore: no node %d", i)
	}
	eps[i].Close()
	return nodes[i].Close()
}

// KillNode simulates a kill -9 of node i: the process vanishes mid-flight.
// Unlike CrashNode, nothing is closed cleanly — in-flight memtable flushes
// and compactions are abandoned torn on disk and no fsync happens on the
// way down. The store directory is left exactly as a hard crash leaves it;
// RestartNodeFresh must recover from that alone.
func (c *Cluster) KillNode(i int) error {
	eps, nodes := c.members()
	if i < 0 || i >= len(nodes) {
		return fmt.Errorf("mystore: no node %d", i)
	}
	eps[i].Close()
	nodes[i].Kill()
	return nil
}

// RestartNodeFresh boots a brand-new node process in place of a crashed
// node i: same address, same store directory. State is rebuilt from the
// directory (lsm tables plus WAL tail replay), then gossip re-admits the
// node and parked hints flow back — the recovery path of paper §5.2.
// Optional configure hooks run on the new node before it starts serving
// (fault-injection experiments re-attach their instrumentation here).
func (c *Cluster) RestartNodeFresh(i int, configure ...func(*Node)) (*Node, error) {
	c.mu.Lock()
	if i < 0 || i >= len(c.nodes) {
		c.mu.Unlock()
		return nil, fmt.Errorf("mystore: no node %d", i)
	}
	ep := c.eps[i]
	c.mu.Unlock()
	// Build the replacement while the endpoint is still closed (NewNode makes
	// no outbound calls), configure it, swap it in, then reopen the wire —
	// so neither the gossip ticker nor peers ever reach the node before it
	// is fully assembled.
	node, err := cluster.NewNode(ep, c.nodeConfig(i))
	if err != nil {
		return nil, err
	}
	for _, fn := range configure {
		fn(node)
	}
	c.mu.Lock()
	c.nodes[i] = node
	c.mu.Unlock()
	ep.Reopen()
	return node, nil
}

// AddNode grows the cluster by one node at runtime; gossip spreads the
// membership and data migrates on subsequent ticks. A cluster with
// StrongRanges refuses: each consensus group's membership is pinned when the
// group is created, and a new node would take over ring positions whose
// strong operations no group it belongs to can serve.
func (c *Cluster) AddNode() (*Node, error) {
	if c.opts.StrongRanges > 0 {
		return nil, errors.New("mystore: AddNode on a cluster with StrongRanges: consensus group membership is pinned at group creation")
	}
	c.mu.Lock()
	i := len(c.nodes)
	c.addrs = append(c.addrs, nodeAddr(i))
	c.mu.Unlock()
	return c.startNode(i)
}

// Close shuts every node down.
func (c *Cluster) Close() error {
	if c.stop != nil {
		c.stop()
		<-c.done
	}
	_, nodes := c.members()
	var first error
	for _, n := range nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- networked deployments ---

// NodeOptions configure a networked node.
type NodeOptions struct {
	// Seeds are the addresses of the cluster's seed nodes.
	Seeds []string
	// Weight is the node's capacity weight (default 1).
	Weight int
	// N, W, R are the replication settings (default 3, 2, 1).
	N, W, R int
	// DataDir persists the store (WAL plus lsm tables) and the consensus
	// log; empty runs them in a scratch directory that goes when the node
	// closes.
	DataDir string
	// Durable fsyncs every mutation before acknowledging (group-committed).
	Durable bool
	// StorageEngine names the local storage engine.
	//
	// Deprecated: every node runs lsm. "" and "lsm" are accepted; any other
	// name is refused.
	StorageEngine string
	// MemtableBytes sizes the lsm write buffer (default 4 MiB).
	MemtableBytes int64
	// BlockCacheBytes sizes the lsm block cache (default 32 MiB).
	BlockCacheBytes int64
	// StrongRanges, when > 0, turns on the CP replication tier. See
	// ClusterOptions.StrongRanges.
	StrongRanges int
	// StrongElectionTimeout is the consensus election timeout (default
	// 150ms).
	StrongElectionTimeout time.Duration
	// GossipInterval defaults to 1s.
	GossipInterval time.Duration
	// Tracer, when non-nil, is the node-local trace collector incoming
	// requests join their on-wire trace ids against.
	Tracer *TraceCollector
}

// ListenNode starts a networked storage node serving on addr and begins
// its background loop. Stop it with its Close method after cancelling ctx.
func ListenNode(ctx context.Context, addr string, opts NodeOptions) (*Node, error) {
	tr, err := transport.ListenTCP(addr, transport.TCPOptions{})
	if err != nil {
		return nil, err
	}
	opts.N, opts.W, opts.R = quorumDefaults(opts.N, opts.W, opts.R)
	node, err := cluster.NewNode(tr, cluster.Config{
		Seeds:    opts.Seeds,
		Weight:   opts.Weight,
		NWR:      nwr.Config{N: opts.N, W: opts.W, R: opts.R},
		StoreDir: opts.DataDir,
		Store: docstore.Options{
			WAL:    wal.Options{SyncEveryAppend: opts.Durable},
			Engine: opts.StorageEngine,
			Storage: lsm.Tuning{
				MemtableBytes:   opts.MemtableBytes,
				BlockCacheBytes: opts.BlockCacheBytes,
			},
		},
		StrongRanges:          opts.StrongRanges,
		StrongElectionTimeout: opts.StrongElectionTimeout,
		GossipInterval:        opts.GossipInterval,
		Tracer:                opts.Tracer,
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	go node.RunLoop(ctx)
	return node, nil
}

// Connect dials a networked cluster from this process, running the
// connection test against the given node addresses.
func Connect(ctx context.Context, nodes []string, opts ClientOptions) (*Client, error) {
	tr, err := transport.ListenTCP("127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		return nil, err
	}
	return cluster.Connect(ctx, tr, nodes, opts)
}
