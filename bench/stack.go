package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"mystore"
	"mystore/internal/cluster"
	"mystore/internal/docstore"
	"mystore/internal/lsm"
	"mystore/internal/nwr"
	"mystore/internal/rest"
	"mystore/internal/transport"
	"mystore/internal/wal"
)

const (
	nodeCount    = 5
	replicasN    = 3
	writeQuorum  = 2
	readQuorum   = 1
	strongRanges = 4
	cacheServers = 2
	// loadConns is how many load-generator goroutines and keep-alive
	// connections drive the gateway: one per core of the bench machine, so
	// the generator measures the system and not the scheduler.
	loadConns = 2
	// flushPolicy is the one durability setting every workload runs under.
	flushPolicy = "fsync before ack (wal SyncEveryAppend, group commit)"
)

// stack is the real system in one process: 5 storage nodes on loopback TCP,
// a cluster client, and the REST gateway with its cache tier behind an HTTP
// server.
type stack struct {
	cancel context.CancelFunc
	nodes  []*mystore.Node
	client *mystore.Client
	gw     *mystore.Gateway
	srv    *httptest.Server
	rec    *recorder // nil unless the stack was built for tracing
}

func nodeOptions(sz sizes, dir string, seeds []string, strong bool) mystore.NodeOptions {
	o := mystore.NodeOptions{
		Seeds: seeds, N: replicasN, W: writeQuorum, R: readQuorum,
		DataDir: dir, Durable: true, StorageEngine: "lsm",
		MemtableBytes: sz.memtableBytes, BlockCacheBytes: sz.blockCacheBytes,
		GossipInterval: sz.gossip,
	}
	if strong {
		o.StrongRanges = strongRanges
	}
	return o
}

// storeOptions is the document store a node with options o opens, as
// mystore.ListenNode derives it. The probes open theirs with it too.
func storeOptions(o mystore.NodeOptions) docstore.Options {
	return docstore.Options{
		WAL:     wal.Options{SyncEveryAppend: o.Durable},
		Engine:  o.StorageEngine,
		Storage: lsm.Tuning{MemtableBytes: o.MemtableBytes, BlockCacheBytes: o.BlockCacheBytes},
	}
}

// freeAddr reserves a loopback port so the seed node can be told its own
// address before it listens.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// listenTracedNode is mystore.ListenNode with the endpoint wrapped, so the
// handler the node registers and the calls it makes pass through the
// benchmark's decorators.
func listenTracedNode(ctx context.Context, addr string, o mystore.NodeOptions, rec *recorder) (*mystore.Node, error) {
	tr, err := transport.ListenTCP(addr, transport.TCPOptions{})
	if err != nil {
		return nil, err
	}
	node, err := cluster.NewNode(&tracedTransport{Transport: tr, rec: rec}, cluster.Config{
		Seeds:          o.Seeds,
		Weight:         o.Weight,
		NWR:            nwr.Config{N: o.N, W: o.W, R: o.R},
		StoreDir:       o.DataDir,
		Store:          storeOptions(o),
		StrongRanges:   o.StrongRanges,
		GossipInterval: o.GossipInterval,
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	go node.RunLoop(ctx)
	return node, nil
}

// boot builds a stack under dir and waits for the ring to converge. With a
// recorder every endpoint and the gateway's backend are wrapped.
func boot(sz sizes, dir string, strong bool, rec *recorder) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{cancel: cancel, rec: rec}
	seed, err := freeAddr()
	if err != nil {
		cancel()
		return nil, err
	}
	var addrs []string
	for i := 0; i < nodeCount; i++ {
		addr := "127.0.0.1:0"
		if i == 0 {
			addr = seed
		}
		o := nodeOptions(sz, filepath.Join(dir, fmt.Sprintf("node-%d", i)), []string{seed}, strong)
		var node *mystore.Node
		if rec != nil {
			node, err = listenTracedNode(ctx, addr, o, rec)
		} else {
			node, err = mystore.ListenNode(ctx, addr, o)
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		st.nodes = append(st.nodes, node)
		addrs = append(addrs, node.Addr())
	}
	deadline := time.Now().Add(30 * time.Second)
	for !st.converged() {
		if time.Now().After(deadline) {
			st.close()
			return nil, fmt.Errorf("ring did not converge on %d nodes", nodeCount)
		}
		time.Sleep(5 * time.Millisecond)
	}
	copts := mystore.ClientOptions{AutoRetry: true}
	var backend rest.Backend
	if rec != nil {
		var tr *transport.TCPTransport
		if tr, err = transport.ListenTCP("127.0.0.1:0", transport.TCPOptions{}); err == nil {
			st.client, err = cluster.Connect(ctx, &tracedTransport{Transport: tr, rec: rec, client: true}, addrs, copts)
			if err != nil {
				tr.Close()
			}
		}
		backend = tracedBackend{inner: mystore.ClusterBackend{Client: st.client}, rec: rec}
	} else {
		st.client, err = mystore.Connect(ctx, addrs, copts)
		backend = mystore.ClusterBackend{Client: st.client}
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	st.gw = mystore.NewGateway(backend, mystore.GatewayOptions{CacheServers: cacheServers, CacheBytes: sz.cacheBytes})
	st.srv = httptest.NewServer(st.gw.Handler())
	return st, nil
}

func (st *stack) converged() bool {
	for _, n := range st.nodes {
		if n.Ring().Len() < nodeCount {
			return false
		}
	}
	return true
}

// quiesced reports whether no node holds a hint or a queued read repair.
func (st *stack) quiesced() bool {
	for _, n := range st.nodes {
		if n.Coordinator().HintCount() > 0 || n.Coordinator().RepairBacklog() > 0 {
			return false
		}
	}
	return true
}

// close stops the load path first and the nodes last, waiting for each.
func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	if st.client != nil {
		st.client.Transport().Close()
	}
	st.cancel()
	for _, n := range st.nodes {
		n.Close()
	}
}

// newConn returns an HTTP client that owns exactly one keep-alive
// connection to the gateway.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 15 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}
