package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mystore/internal/bson"
	"mystore/internal/metrics"
	"mystore/internal/trace"
)

// MemNetwork is an in-memory network of endpoints. Calls run the remote
// handler in the caller's goroutine after an optional simulated latency;
// a pluggable fault hook can fail or delay individual messages, which is
// how the failure-injection framework (internal/faults) reaches the wire.
type MemNetwork struct {
	mu        sync.RWMutex
	endpoints map[string]*MemTransport
	latency   func(from, to string, size int) time.Duration
	fault     func(from, to, msgType string) error
	partition map[[2]string]bool
}

// NewMemNetwork returns an empty network with zero latency and no faults.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{
		endpoints: make(map[string]*MemTransport),
		partition: make(map[[2]string]bool),
	}
}

// SetLatencyModel installs fn to compute one-way delivery latency per
// message. A nil fn means zero latency. size is the encoded body size.
func (n *MemNetwork) SetLatencyModel(fn func(from, to string, size int) time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = fn
}

// LANLatency models the paper's gigabit-switch testbed: a fixed per-message
// overhead plus transmission time at the given bytes/sec.
func LANLatency(base time.Duration, bytesPerSec float64) func(string, string, int) time.Duration {
	return func(_, _ string, size int) time.Duration {
		if bytesPerSec <= 0 {
			return base
		}
		return base + time.Duration(float64(size)/bytesPerSec*float64(time.Second))
	}
}

// SetFault installs a hook invoked for every message before delivery; a
// non-nil return fails the call with that error. A nil hook clears it.
func (n *MemNetwork) SetFault(fn func(from, to, msgType string) error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fault = fn
}

// Partition severs both directions between a and b until Heal.
func (n *MemNetwork) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition[[2]string{a, b}] = true
	n.partition[[2]string{b, a}] = true
}

// Heal restores connectivity between a and b.
func (n *MemNetwork) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partition, [2]string{a, b})
	delete(n.partition, [2]string{b, a})
}

// Endpoint attaches a new endpoint at addr. Attaching an existing address
// returns an error (addresses identify nodes).
func (n *MemNetwork) Endpoint(addr string) (*MemTransport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already attached", addr)
	}
	t := &MemTransport{net: n, addr: addr, rpcLatency: metrics.NewHistogramVec(nil)}
	n.endpoints[addr] = t
	return t, nil
}

// Addresses lists attached endpoints (tests and tooling).
func (n *MemNetwork) Addresses() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.endpoints))
	for a := range n.endpoints {
		out = append(out, a)
	}
	return out
}

func (n *MemNetwork) deliver(ctx context.Context, from string, to string, msg Message) (bson.D, error) {
	n.mu.RLock()
	target, ok := n.endpoints[to]
	cut := n.partition[[2]string{from, to}]
	fault := n.fault
	latency := n.latency
	n.mu.RUnlock()

	if fault != nil {
		if err := fault(from, to, msg.Type); err != nil {
			return nil, fmt.Errorf("%w: %s -> %s: %v", ErrUnreachable, from, to, err)
		}
	}
	if !ok || cut {
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	if latency != nil {
		size := 0
		if msg.Body != nil {
			if enc, err := bson.Marshal(msg.Body); err == nil {
				size = len(enc)
			}
		}
		// Request-path latency here; response-path latency is applied in
		// handle once the response size is known.
		if err := sleepCtx(ctx, latency(from, to, size)); err != nil {
			return nil, err
		}
	}
	return target.handle(ctx, msg, latency, from)
}

func (t *MemTransport) handle(ctx context.Context, msg Message, latency func(string, string, int) time.Duration, from string) (bson.D, error) {
	t.mu.RLock()
	h := t.handler
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, t.addr)
	}
	if h == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoHandler, t.addr)
	}
	// Deadline propagation: the caller's context reaches this handler
	// directly, so mirror the TCP server's policy — if the caller has
	// already given up, drop the request instead of doing wasted work.
	if ctx.Err() != nil {
		t.deadlineDropped.Add(1)
		return nil, fmt.Errorf("%w: %s: %s", ErrTimeout, t.addr, deadlineExpiredMsg)
	}
	resp, err := h(ctx, msg)
	if err != nil {
		return nil, &RemoteError{Msg: err.Error()}
	}
	if latency != nil {
		size := 0
		if resp != nil {
			if enc, mErr := bson.Marshal(resp); mErr == nil {
				size = len(enc)
			}
		}
		if err := sleepCtx(ctx, latency(t.addr, from, size)); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	}
}

// MemTransport is one endpoint on a MemNetwork.
type MemTransport struct {
	mu      sync.RWMutex
	net     *MemNetwork
	addr    string
	handler Handler
	closed  bool

	deadlineDropped atomic.Int64
	rpcLatency      *metrics.HistogramVec
}

// DeadlineDropped counts requests dropped because the caller's deadline had
// already expired when they reached this endpoint's handler.
func (t *MemTransport) DeadlineDropped() int64 { return t.deadlineDropped.Load() }

// RPCLatency exposes the per-peer request/response latency histograms for
// registry registration.
func (t *MemTransport) RPCLatency() *metrics.HistogramVec { return t.rpcLatency }

// Addr implements Transport.
func (t *MemTransport) Addr() string { return t.addr }

// SetHandler implements Transport.
func (t *MemTransport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// Call implements Transport. The remote handler runs in this goroutine with
// this context, so the caller's trace (and collector) flows to the remote
// side without any wire encoding.
func (t *MemTransport) Call(ctx context.Context, to string, msg Message) (bson.D, error) {
	t.mu.RLock()
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	ctx, sp := trace.Start(ctx, "transport.call")
	sp.SetPeer(to)
	msg.From = t.addr
	start := time.Now()
	body, err := t.net.deliver(ctx, t.addr, to, msg)
	t.rpcLatency.With(to).ObserveDuration(time.Since(start))
	sp.End(err)
	return body, err
}

// Close implements Transport. The address remains reserved (a restarted
// node re-attaches via Reopen).
func (t *MemTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	return nil
}

// Reopen re-attaches a closed endpoint, simulating a node process restart.
func (t *MemTransport) Reopen() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = false
}

// Closed reports whether the endpoint is detached.
func (t *MemTransport) Closed() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.closed
}
