// Package rest implements MyStore's user interface module (paper §4): a
// RESTful gateway exposing GET/POST/DELETE over unstructured data, with the
// cache module consulted before the storage cluster, requests distributed
// round-robin over a pool of logical workers (the Nginx + spawn-fcgi
// analogue), and optional URI-signature authentication.
//
// The gateway fronts any Backend, which is how the evaluation binds the
// ext3-filesystem and MySQL-master/slave baselines to "the same RESTful
// interfaces" for the Fig 11/12 comparisons.
package rest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mystore/internal/auth"
	"mystore/internal/cache"
	"mystore/internal/dispatch"
	"mystore/internal/metrics"
	"mystore/internal/trace"
	"mystore/internal/uuid"
)

// Backend is a key-value store the gateway fronts.
type Backend interface {
	Put(ctx context.Context, key string, val []byte) error
	Get(ctx context.Context, key string) ([]byte, error)
	Delete(ctx context.Context, key string) error
}

// BatchBackend is an optional Backend extension that serves several keys in
// one backend round trip. POST /batch/get uses it when the backend provides
// it and falls back to per-key Gets otherwise. found holds the keys that
// exist; failed maps keys whose read failed (e.g. below quorum) to an error
// message; keys in neither simply do not exist.
type BatchBackend interface {
	GetMany(ctx context.Context, keys []string) (found map[string][]byte, failed map[string]string, err error)
}

// StrongBackend is an optional Backend extension serving linearizable
// operations. /data requests carrying ?consistency=strong route through it;
// strong GETs bypass the cache tier entirely (a cached value may predate the
// latest committed write, which is exactly what strong readers pay to avoid).
type StrongBackend interface {
	StrongPut(ctx context.Context, key string, val []byte) error
	StrongGet(ctx context.Context, key string) ([]byte, error)
	StrongDelete(ctx context.Context, key string) error
}

// ErrNotFound must be returned (or wrapped) by Backend.Get for absent keys
// so the gateway can answer 404.
var ErrNotFound = errors.New("rest: key not found")

// maxBatchKeys bounds one POST /batch/get request; larger batches get 400.
const maxBatchKeys = 1024

// Config tunes a Gateway.
type Config struct {
	// Cache, when non-nil, is consulted before the backend on GET and
	// updated on reads, writes and deletes.
	Cache *cache.Tier
	// Auth, when non-nil, requires every /data request to carry a valid
	// token + signature (paper Fig 2).
	Auth *auth.TokenDB
	// Workers sizes the logical-process pool (default 8).
	Workers int
	// QueueDepth bounds each worker's backlog (default 64).
	QueueDepth int
	// MaxBodyBytes bounds uploads (default 16 MiB).
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline the gateway attaches to
	// each /data operation; it propagates through the worker pool into the
	// storage RPCs, and a queued request that can no longer meet it is shed
	// with 503 + Retry-After instead of run. Zero means 10s; negative
	// disables the deadline.
	RequestTimeout time.Duration
	// Metrics, when non-nil, receives the gateway's metric families
	// (requests, latency, dispatch, per-server cache counters) and is
	// rendered at /metrics in the Prometheus text format. The registry's
	// snapshot also folds into /stats.
	Metrics *metrics.Registry
	// Trace, when non-nil, is installed into every /data request context so
	// each layer the request crosses records a span; finished traces are
	// served at /debug/traces.
	Trace *trace.Collector
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by default:
	// profiles expose more than operators usually want on a data port).
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// Stats counts gateway activity. Shed counts requests answered 503 because
// the pool was saturated or their queue wait outlived the deadline;
// DeadlineMisses counts requests whose own deadline expired.
type Stats struct {
	Requests, CacheHits, CacheMisses int64
	Errors                           int64
	Shed, DeadlineMisses             int64
}

// Gateway is the HTTP front end.
type Gateway struct {
	cfg     Config
	backend Backend
	pool    *dispatch.Pool

	requests, cacheHits, cacheMisses, errs atomic.Int64
	shed, deadlineMisses                   atomic.Int64
	reqLatency                             *metrics.BucketedHistogram
}

// NewGateway builds a gateway over backend.
func NewGateway(backend Backend, cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:        cfg,
		backend:    backend,
		pool:       dispatch.NewPool(cfg.Workers, cfg.QueueDepth),
		reqLatency: metrics.NewBucketedHistogram(nil),
	}
	if cfg.Metrics != nil {
		g.registerMetrics(cfg.Metrics)
	}
	return g
}

// registerMetrics adds the gateway-side families: HTTP counters and latency,
// the dispatch pool, and per-server cache traffic.
func (g *Gateway) registerMetrics(r *metrics.Registry) {
	r.CounterFunc("mystore_gateway_requests_total", "HTTP /data requests received.",
		func() float64 { return float64(g.requests.Load()) })
	r.CounterFunc("mystore_gateway_errors_total", "HTTP /data requests answered with an error.",
		func() float64 { return float64(g.errs.Load()) })
	r.CounterFunc("mystore_gateway_shed_total", "HTTP /data requests answered 503 under overload.",
		func() float64 { return float64(g.shed.Load()) })
	r.Register("mystore_gateway_request_seconds", "End-to-end /data request latency.", metrics.TypeHistogram, "").
		AddHistogram("", 1e-9, g.reqLatency.Snapshot)

	r.CounterFunc("mystore_dispatch_dispatched_total", "Requests accepted by the worker pool.",
		func() float64 { return float64(g.pool.Stats().Dispatched) })
	r.CounterFunc("mystore_dispatch_completed_total", "Requests finished by the worker pool.",
		func() float64 { return float64(g.pool.Stats().Completed) })
	r.CounterFunc("mystore_dispatch_shed_total", "Queued requests dropped because their deadline expired before a worker reached them.",
		func() float64 { return float64(g.pool.Stats().Shed) })
	r.Register("mystore_dispatch_queue_wait_seconds", "Time requests spend queued before a worker picks them up.", metrics.TypeHistogram, "").
		AddHistogram("", 1e-9, g.pool.QueueWait().Snapshot)

	if g.cfg.Cache != nil {
		hits := r.Register("mystore_cache_hits_total", "Cache hits by cache server.", metrics.TypeCounter, "server")
		misses := r.Register("mystore_cache_misses_total", "Cache misses by cache server.", metrics.TypeCounter, "server")
		evictions := r.Register("mystore_cache_evictions_total", "LRU evictions by cache server.", metrics.TypeCounter, "server")
		bytes := r.Register("mystore_cache_used_bytes", "Bytes of cached values by cache server.", metrics.TypeGauge, "server")
		for i, srv := range g.cfg.Cache.Servers() {
			srv := srv
			label := strconv.Itoa(i)
			hits.Add(label, func() float64 { return float64(srv.Stats().Hits) })
			misses.Add(label, func() float64 { return float64(srv.Stats().Misses) })
			evictions.Add(label, func() float64 { return float64(srv.Stats().Evictions) })
			bytes.Add(label, func() float64 { return float64(srv.UsedBytes()) })
		}
	}
}

// Close stops the worker pool.
func (g *Gateway) Close() { g.pool.Close() }

// Stats returns a snapshot.
func (g *Gateway) Stats() Stats {
	return Stats{
		Requests:       g.requests.Load(),
		CacheHits:      g.cacheHits.Load(),
		CacheMisses:    g.cacheMisses.Load(),
		Errors:         g.errs.Load(),
		Shed:           g.shed.Load(),
		DeadlineMisses: g.deadlineMisses.Load(),
	}
}

// Handler returns the gateway's HTTP handler:
//
//	GET    /data/{key}   retrieve
//	POST   /data/{key}   create or update (body = value)
//	POST   /data/        create with a generated key; returns the key
//	POST   /batch/get    retrieve many keys in one round (JSON {"keys": [...]})
//	DELETE /data/{key}   delete
//
// /data requests accept ?consistency=strong to route through the backend's
// linearizable path (StrongBackend); strong GETs bypass the cache tier.
//
//	GET    /token?user=u issue a request token (when auth is enabled)
//	GET    /stats        gateway counters as JSON (unauthenticated)
//	GET    /metrics      Prometheus text exposition (when Config.Metrics set)
//	GET    /debug/traces recent request traces as JSON (when Config.Trace set)
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/data/", g.handleData)
	mux.HandleFunc("/batch/get", g.handleBatchGet)
	mux.HandleFunc("/token", g.handleToken)
	mux.HandleFunc("/stats", g.handleStats)
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/debug/traces", g.handleTraces)
	if g.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleStats answers the JSON counters endpoint. The historical keys
// (requests, cacheHits, workers, completed, ...) are always present; when a
// registry is configured its flattened snapshot rides along, so one curl
// shows WAL, NWR and peer-view state next to the gateway counters.
func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := g.Stats()
	ps := g.pool.Stats()
	out := map[string]any{
		"requests":       st.Requests,
		"cacheHits":      st.CacheHits,
		"cacheMisses":    st.CacheMisses,
		"errors":         st.Errors,
		"shed":           st.Shed,
		"deadlineMisses": st.DeadlineMisses,
		"workers":        g.pool.Workers(),
		"dispatched":     ps.Dispatched,
		"completed":      ps.Completed,
		"failed":         ps.Failed,
		"poolShed":       ps.Shed,
	}
	if g.cfg.Metrics != nil {
		for name, v := range g.cfg.Metrics.Snapshot() {
			if _, taken := out[name]; !taken {
				out[name] = v
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if g.cfg.Metrics == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.cfg.Metrics.WritePrometheus(w) //nolint:errcheck
}

// traceOut renders a trace with its id in hex (the id is a raw uint64
// internally, which JSON would mangle past 2^53).
type traceOut struct {
	ID string `json:"id"`
	trace.Trace
}

// handleTraces serves recent finished traces, newest first. ?n= bounds the
// count (default 20), ?slow=1 keeps only traces past the slow threshold,
// ?id=<hex> looks one trace up by id.
func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Trace == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if hex := r.URL.Query().Get("id"); hex != "" {
		id, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		t, ok := g.cfg.Trace.TraceByID(trace.ID(id))
		if !ok {
			http.Error(w, "trace not found", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(traceOut{ID: fmt.Sprintf("%016x", uint64(t.ID)), Trace: t}) //nolint:errcheck
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	if n <= 0 {
		n = 20
	}
	slowOnly := r.URL.Query().Get("slow") != ""
	traces := g.cfg.Trace.Traces(n)
	out := make([]traceOut, 0, len(traces))
	for _, t := range traces {
		if slowOnly && !t.Slow {
			continue
		}
		out = append(out, traceOut{ID: fmt.Sprintf("%016x", uint64(t.ID)), Trace: t})
	}
	json.NewEncoder(w).Encode(out) //nolint:errcheck
}

func (g *Gateway) handleToken(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Auth == nil {
		http.Error(w, "authentication disabled", http.StatusNotFound)
		return
	}
	user := r.URL.Query().Get("user")
	token, err := g.cfg.Auth.IssueToken(user)
	if err != nil {
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	fmt.Fprint(w, token)
}

func (g *Gateway) handleData(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	if g.cfg.Auth != nil {
		if _, err := g.cfg.Auth.Verify(r.URL.RequestURI()); err != nil {
			g.errs.Add(1)
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
	}
	// Attach the per-request deadline; it rides the context through the
	// worker pool and onto the storage RPC wire.
	if g.cfg.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	var opName string
	switch r.Method {
	case http.MethodGet:
		opName = "rest.get"
	case http.MethodPost:
		opName = "rest.post"
	case http.MethodDelete:
		opName = "rest.delete"
	default:
		g.errs.Add(1)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// The root span: every span any layer below opens — dispatch queue,
	// coordinator fan-out, transport, WAL commit — descends from it, and its
	// end finalizes the trace.
	if g.cfg.Trace != nil {
		r = r.WithContext(trace.WithCollector(r.Context(), g.cfg.Trace))
	}
	ctx, sp := trace.Start(r.Context(), opName)
	r = r.WithContext(ctx)
	start := time.Now()
	defer func() {
		g.reqLatency.ObserveDuration(time.Since(start))
		sp.End(nil)
	}()
	key := strings.TrimPrefix(r.URL.Path, "/data/")
	strong := r.URL.Query().Get("consistency") == "strong"
	if strong {
		if _, ok := g.backend.(StrongBackend); !ok {
			g.errs.Add(1)
			http.Error(w, "strong consistency not supported by this backend", http.StatusNotImplemented)
			return
		}
	}
	switch r.Method {
	case http.MethodGet:
		g.handleGet(w, r, key, strong)
	case http.MethodPost:
		g.handlePost(w, r, key, strong)
	case http.MethodDelete:
		g.handleDelete(w, r, key, strong)
	}
}

// batchGetRequest is the POST /batch/get body.
type batchGetRequest struct {
	Keys []string `json:"keys"`
}

// batchGetResponse is the POST /batch/get answer. Results maps found keys to
// their values (base64 in JSON); Missing lists keys that do not exist;
// Errors maps keys whose read failed (for example below the read quorum) to
// an error message, so clients can tell "absent" from "unreadable".
type batchGetResponse struct {
	Results map[string][]byte `json:"results"`
	Missing []string          `json:"missing,omitempty"`
	Errors  map[string]string `json:"errors,omitempty"`
}

// handleBatchGet serves POST /batch/get: the cache tier is consulted once
// for the whole key set, then the entire miss set is fetched from the
// backend in one batched round (per-key Gets when the backend has no batch
// support) and written back to the cache.
func (g *Gateway) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	if r.Method != http.MethodPost {
		g.errs.Add(1)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if g.cfg.Auth != nil {
		if _, err := g.cfg.Auth.Verify(r.URL.RequestURI()); err != nil {
			g.errs.Add(1)
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
	}
	if g.cfg.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	if g.cfg.Trace != nil {
		r = r.WithContext(trace.WithCollector(r.Context(), g.cfg.Trace))
	}
	ctx, sp := trace.Start(r.Context(), "rest.batchget")
	start := time.Now()
	defer func() {
		g.reqLatency.ObserveDuration(time.Since(start))
		sp.End(nil)
	}()

	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBodyBytes+1))
	if err != nil {
		g.fail(w, err)
		return
	}
	if int64(len(body)) > g.cfg.MaxBodyBytes {
		g.errs.Add(1)
		http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
		return
	}
	var req batchGetRequest
	if err := json.Unmarshal(body, &req); err != nil {
		g.errs.Add(1)
		http.Error(w, "malformed request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Keys) == 0 || len(req.Keys) > maxBatchKeys {
		g.errs.Add(1)
		http.Error(w, fmt.Sprintf("need 1..%d keys", maxBatchKeys), http.StatusBadRequest)
		return
	}

	resp := batchGetResponse{Results: map[string][]byte{}}
	missing := req.Keys
	if g.cfg.Cache != nil {
		var hits map[string][]byte
		hits, missing = g.cfg.Cache.GetMany(req.Keys)
		g.cacheHits.Add(int64(len(hits)))
		g.cacheMisses.Add(int64(len(missing)))
		for k, v := range hits {
			resp.Results[k] = v
		}
	}
	if len(missing) > 0 {
		var fetched map[string][]byte
		var failed map[string]string
		err := g.pool.Do(ctx, func(ctx context.Context) error {
			var derr error
			fetched, failed, derr = g.backendGetMany(ctx, missing)
			return derr
		})
		if err != nil {
			g.fail(w, err)
			return
		}
		for k, v := range fetched {
			resp.Results[k] = v
			if g.cfg.Cache != nil {
				g.cfg.Cache.Set(k, v)
			}
		}
		resp.Errors = failed
		for _, k := range missing {
			if _, ok := fetched[k]; ok {
				continue
			}
			if _, ok := failed[k]; ok {
				continue
			}
			resp.Missing = append(resp.Missing, k)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// backendGetMany fetches the miss set: one batched call when the backend
// implements BatchBackend, else a per-key fallback loop.
func (g *Gateway) backendGetMany(ctx context.Context, keys []string) (map[string][]byte, map[string]string, error) {
	if bb, ok := g.backend.(BatchBackend); ok {
		return bb.GetMany(ctx, keys)
	}
	found := make(map[string][]byte, len(keys))
	var failed map[string]string
	for _, k := range keys {
		val, err := g.backend.Get(ctx, k)
		switch {
		case err == nil:
			found[k] = val
		case errors.Is(err, ErrNotFound):
			// Simply absent.
		default:
			if failed == nil {
				failed = map[string]string{}
			}
			failed[k] = err.Error()
		}
	}
	return found, failed, nil
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request, key string, strong bool) {
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	if strong {
		// Straight to the range leader: no cache lookup, no cache fill. The
		// response reflects every committed write; caching it would let a
		// later eventual read serve it stale, which is fine, but filling the
		// cache from here buys nothing a quorum write-through didn't already.
		var val []byte
		err := g.pool.Do(r.Context(), func(ctx context.Context) error {
			var err error
			val, err = g.backend.(StrongBackend).StrongGet(ctx, key)
			return err
		})
		if err != nil {
			g.fail(w, err)
			return
		}
		w.Header().Set("X-Cache", "bypass")
		w.Write(val) //nolint:errcheck
		return
	}
	if g.cfg.Cache != nil {
		if val, ok := g.cfg.Cache.Get(key); ok {
			g.cacheHits.Add(1)
			w.Header().Set("X-Cache", "hit")
			w.Write(val) //nolint:errcheck
			return
		}
		g.cacheMisses.Add(1)
	}
	var val []byte
	err := g.pool.Do(r.Context(), func(ctx context.Context) error {
		var err error
		val, err = g.backend.Get(ctx, key)
		return err
	})
	if err != nil {
		g.fail(w, err)
		return
	}
	if g.cfg.Cache != nil {
		g.cfg.Cache.Set(key, val)
	}
	w.Header().Set("X-Cache", "miss")
	w.Write(val) //nolint:errcheck
}

func (g *Gateway) handlePost(w http.ResponseWriter, r *http.Request, key string, strong bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBodyBytes+1))
	if err != nil {
		g.fail(w, err)
		return
	}
	if int64(len(body)) > g.cfg.MaxBodyBytes {
		g.errs.Add(1)
		http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
		return
	}
	created := false
	if key == "" {
		// POST without a key creates a new item and returns its key
		// (paper §4: "it will create a new item in database and return a
		// key value to user").
		key = uuid.NewObjectId().Hex()
		created = true
	}
	err = g.pool.Do(r.Context(), func(ctx context.Context) error {
		if strong {
			return g.backend.(StrongBackend).StrongPut(ctx, key, body)
		}
		return g.backend.Put(ctx, key, body)
	})
	if err != nil {
		g.fail(w, err)
		return
	}
	if g.cfg.Cache != nil {
		g.cfg.Cache.Set(key, body)
	}
	if created {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, key)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (g *Gateway) handleDelete(w http.ResponseWriter, r *http.Request, key string, strong bool) {
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	err := g.pool.Do(r.Context(), func(ctx context.Context) error {
		if strong {
			return g.backend.(StrongBackend).StrongDelete(ctx, key)
		}
		return g.backend.Delete(ctx, key)
	})
	if err != nil {
		g.fail(w, err)
		return
	}
	if g.cfg.Cache != nil {
		g.cfg.Cache.Delete(key)
	}
	w.WriteHeader(http.StatusOK)
}

func (g *Gateway) fail(w http.ResponseWriter, err error) {
	g.errs.Add(1)
	switch {
	case errors.Is(err, ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, dispatch.ErrQueueFull), errors.Is(err, dispatch.ErrShed):
		// Overload: tell the client to back off briefly and retry — the
		// saturation that shed this request is usually transient.
		g.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded):
		g.deadlineMisses.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadGateway)
	}
}
