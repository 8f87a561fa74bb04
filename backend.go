package mystore

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mystore/internal/auth"
	"mystore/internal/cache"
	"mystore/internal/cluster"
	"mystore/internal/metrics"
	"mystore/internal/rest"
	"mystore/internal/transport"
)

// ClusterBackend adapts a cluster Client to the REST gateway's Backend
// interface, completing the paper's four-module stack (user interface →
// distribution → cache → data storage).
type ClusterBackend struct {
	Client *Client
}

// Put implements rest.Backend.
func (b ClusterBackend) Put(ctx context.Context, key string, val []byte) error {
	return b.Client.Put(ctx, key, val)
}

// Get implements rest.Backend, translating missing keys to the gateway's
// not-found sentinel. The node reports absence as found: false, so any
// other error — a remote one included — is a real failure.
func (b ClusterBackend) Get(ctx context.Context, key string) ([]byte, error) {
	val, err := b.Client.Get(ctx, key)
	return notFound(key, val, err)
}

// notFound translates cluster.ErrKeyNotFound for key to the gateway's
// not-found sentinel and passes anything else through.
func notFound(key string, val []byte, err error) ([]byte, error) {
	if errors.Is(err, cluster.ErrKeyNotFound) {
		return nil, fmt.Errorf("%w: %q", rest.ErrNotFound, key)
	}
	return val, err
}

// GetMany implements rest.BatchBackend: the whole key set travels to one
// storage node, which coordinates a batched quorum read with one replica RPC
// per peer.
func (b ClusterBackend) GetMany(ctx context.Context, keys []string) (map[string][]byte, map[string]string, error) {
	return b.Client.GetMany(ctx, keys)
}

// Delete implements rest.Backend.
func (b ClusterBackend) Delete(ctx context.Context, key string) error {
	return b.Client.Delete(ctx, key)
}

// StrongPut implements rest.StrongBackend: the write commits through the
// key's range consensus log before acknowledging.
func (b ClusterBackend) StrongPut(ctx context.Context, key string, val []byte) error {
	return b.Client.StrongPut(ctx, key, val)
}

// StrongGet implements rest.StrongBackend: a leader-local linearizable read.
func (b ClusterBackend) StrongGet(ctx context.Context, key string) ([]byte, error) {
	val, err := b.Client.StrongGet(ctx, key)
	return notFound(key, val, err)
}

// StrongDelete implements rest.StrongBackend: the tombstone replicates
// through the range's log.
func (b ClusterBackend) StrongDelete(ctx context.Context, key string) error {
	return b.Client.StrongDelete(ctx, key)
}

// GatewayOptions configure a full MyStore HTTP front end.
type GatewayOptions struct {
	// CacheServers and CacheBytes size the cache tier; zero servers
	// disables caching.
	CacheServers int
	CacheBytes   int64
	// Auth, when non-nil, enforces URI signatures.
	Auth *auth.TokenDB
	// Workers sizes the logical-process pool.
	Workers int
	// RequestTimeout caps each request's end-to-end time; the deadline
	// propagates through the backend to the storage nodes. Zero applies the
	// REST layer's default; negative disables the cap.
	RequestTimeout time.Duration
	// Metrics, when non-nil, receives the gateway's and cache tier's metric
	// families and is served at /metrics. Pair it with
	// Cluster.RegisterMetrics to fold node-side metrics into the same page.
	Metrics *MetricsRegistry
	// Trace, when non-nil, collects a per-request trace served at
	// /debug/traces; traces past its slow threshold hit the slow-op log.
	Trace *TraceCollector
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

// Gateway bundles the REST gateway with its cache tier.
type Gateway struct {
	*rest.Gateway
	Cache *cache.Tier
}

// NewGateway assembles gateway + cache + backend. Serve it with
// http.ListenAndServe(addr, gw.Handler()).
func NewGateway(backend rest.Backend, opts GatewayOptions) *Gateway {
	var tier *cache.Tier
	if opts.CacheServers > 0 {
		per := opts.CacheBytes
		if per <= 0 {
			per = 64 << 20
		}
		tier = cache.NewTier(opts.CacheServers, per/int64(opts.CacheServers))
	}
	gw := rest.NewGateway(backend, rest.Config{
		Cache:          tier,
		Auth:           opts.Auth,
		Workers:        opts.Workers,
		RequestTimeout: opts.RequestTimeout,
		Metrics:        opts.Metrics,
		Trace:          opts.Trace,
		EnablePprof:    opts.EnablePprof,
	})
	if opts.Metrics != nil {
		if cb, ok := backend.(ClusterBackend); ok {
			if ins, isIns := cb.Client.Transport().(transport.Instrumented); isIns {
				opts.Metrics.Register("mystore_rpc_seconds", "Outbound RPC latency by destination peer.",
					metrics.TypeHistogram, "peer").AddHistogramVec(1e-9, ins.RPCLatency().Snapshots)
			}
		}
	}
	return &Gateway{Gateway: gw, Cache: tier}
}

// NewTokenDB creates an authentication database for gateway options.
func NewTokenDB() *auth.TokenDB { return auth.NewTokenDB(0) }

// AuthorizeURI is the client's half of the gateway's authentication (paper
// Fig 2): it returns uri with token and the signature of (token, uri,
// secret) attached.
func AuthorizeURI(uri, token, secret string) (string, error) {
	return auth.AuthorizeURI(uri, token, secret)
}

var _ rest.Backend = ClusterBackend{}
var _ rest.BatchBackend = ClusterBackend{}
var _ rest.StrongBackend = ClusterBackend{}
