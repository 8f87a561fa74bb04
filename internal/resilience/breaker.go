// Package resilience provides the availability machinery the storage
// cluster wires through its RPC paths: per-peer circuit breakers, a
// token-bucket retry budget, jittered exponential backoff, and deadline
// helpers for propagated call deadlines.
//
// The design goal (paper §6.2, Table 2) is that a dead or degraded peer
// costs its callers almost nothing: instead of burning a full CallTimeout
// per attempt per caller, the first few failures trip the peer's breaker
// and every subsequent caller fails over in microseconds until a half-open
// probe proves the peer back. Breakers are fed from two sides — directly
// by call outcomes, and by gossip's short/long failure classification —
// so a node-wide belief ("B short-failed") translates immediately into
// fast failovers on every RPC path that touches B.
package resilience

import (
	"sync"
	"time"

	"mystore/internal/metrics"
)

// State is a breaker's position in the closed/open/half-open cycle.
type State int32

// Breaker states.
const (
	// Closed passes calls through and counts failures.
	Closed State = iota
	// Open fails calls instantly until the cool-down elapses.
	Open
	// HalfOpen admits one probe call; its outcome decides the next state.
	HalfOpen
)

// String renders the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// BreakerConfig tunes the per-peer breakers of a BreakerSet.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive transport failures trip a
	// closed breaker. Zero means 3.
	FailureThreshold int
	// OpenFor is how long an open breaker rejects before admitting a
	// half-open probe. Zero means 1s. A peer gossip classifies as
	// long-failed (seed-confirmed departure) cools down for
	// longFailOpenFactor times as long.
	OpenFor time.Duration
	// Now overrides the clock (deterministic tests). Nil means time.Now.
	Now func() time.Time
}

// longFailOpenFactor scales OpenFor for a long-failed peer.
const longFailOpenFactor = 8

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.OpenFor <= 0 {
		c.OpenFor = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a circuit breaker for one peer. It is safe for concurrent use;
// every method is a handful of nanoseconds — the whole point is that
// checking a dead peer costs callers microseconds, not a CallTimeout.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures while closed
	until    time.Time // while open: when a half-open probe is admitted
	probing  bool      // while half-open: a probe is already in flight
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a call to the peer may proceed now. While open it
// returns false until the cool-down elapses, then admits exactly one
// half-open probe at a time; the probe's Success/Failure decides what
// happens next.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Now().Before(b.until) {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	default: // HalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a call that reached the peer; it closes the breaker and
// clears the failure run.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.failures = 0
	b.probing = false
}

// Failure records a transport-level failure. A failed half-open probe
// re-opens immediately; a run of FailureThreshold failures trips a closed
// breaker. It reports whether this call opened the breaker.
func (b *Breaker) Failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.openLocked(b.cfg.OpenFor)
		return true
	case Closed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.openLocked(b.cfg.OpenFor)
			return true
		}
	}
	return false
}

// Trip forces the breaker open for at least d (gossip's failure
// classification feeds in here). A zero d means the configured OpenFor.
func (b *Breaker) Trip(d time.Duration) {
	if d <= 0 {
		d = b.cfg.OpenFor
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.openLocked(d)
}

// Reset force-closes the breaker (gossip believes the peer up again).
func (b *Breaker) Reset() {
	b.Success()
}

func (b *Breaker) openLocked(d time.Duration) {
	b.state = Open
	b.failures = 0
	b.probing = false
	b.until = b.cfg.Now().Add(d)
}

// State returns the breaker's current state, surfacing the open→half-open
// transition that Allow would take now.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && !b.cfg.Now().Before(b.until) {
		return HalfOpen
	}
	return b.state
}

// PeerStatus is gossip's classification of a peer, fed into ObservePeer.
type PeerStatus int

// Peer statuses as the gossip failure detector reports them.
const (
	// PeerUp: the peer answered gossip; close its breaker.
	PeerUp PeerStatus = iota
	// PeerShortFail: the peer went quiet (self-recovering class); open its
	// breaker for the standard cool-down.
	PeerShortFail
	// PeerLongFail: a seed confirmed the departure; open the breaker for
	// the long cool-down (re-replication will route around it anyway).
	PeerLongFail
)

// BreakerStats is a snapshot of a BreakerSet's counters.
type BreakerStats struct {
	// Opened counts closed/half-open → open transitions.
	Opened int64
	// FastFailures counts calls rejected instantly by an open breaker —
	// each one is a CallTimeout a caller did not burn.
	FastFailures int64
	// Probes counts half-open probe admissions.
	Probes int64
}

// BreakerSet manages one breaker per peer address. The zero value is not
// usable; construct with NewBreakerSet. A nil *BreakerSet is a valid
// no-op: Allow always passes and Report does nothing, so call sites can
// leave resilience unwired.
type BreakerSet struct {
	cfg BreakerConfig

	mu sync.RWMutex
	m  map[string]*Breaker

	opened    metrics.Counter
	fastFails metrics.Counter
	probes    metrics.Counter
}

// NewBreakerSet returns an empty set creating breakers on demand.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), m: make(map[string]*Breaker)}
}

// For returns addr's breaker, creating it (closed) on first use.
func (s *BreakerSet) For(addr string) *Breaker {
	s.mu.RLock()
	b, ok := s.m[addr]
	s.mu.RUnlock()
	if ok {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok = s.m[addr]; ok {
		return b
	}
	b = NewBreaker(s.cfg)
	s.m[addr] = b
	return b
}

// Allow reports whether a call to addr may proceed, counting fast
// failures and probe admissions. A nil set always allows.
func (s *BreakerSet) Allow(addr string) bool {
	if s == nil {
		return true
	}
	b := s.For(addr)
	wasOpen := b.State() != Closed
	if !b.Allow() {
		s.fastFails.Inc()
		return false
	}
	if wasOpen {
		s.probes.Inc()
	}
	return true
}

// Report records a call outcome for addr. ok should be true whenever the
// peer answered at the transport layer — a remote application error still
// proves the peer alive. A nil set does nothing.
func (s *BreakerSet) Report(addr string, ok bool) {
	if s == nil {
		return
	}
	if ok {
		s.For(addr).Success()
		return
	}
	if s.For(addr).Failure() {
		s.opened.Inc()
	}
}

// ObservePeer feeds gossip's failure classification into addr's breaker.
// A nil set does nothing.
func (s *BreakerSet) ObservePeer(addr string, st PeerStatus) {
	if s == nil {
		return
	}
	b := s.For(addr)
	switch st {
	case PeerUp:
		b.Reset()
	case PeerShortFail:
		if b.State() != Open {
			s.opened.Inc()
		}
		b.Trip(s.cfg.OpenFor)
	case PeerLongFail:
		if b.State() != Open {
			s.opened.Inc()
		}
		b.Trip(longFailOpenFactor * s.cfg.OpenFor)
	}
}

// States snapshots every known breaker's state.
func (s *BreakerSet) States() map[string]State {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]State, len(s.m))
	for addr, b := range s.m {
		out[addr] = b.State()
	}
	return out
}

// OpenCount returns how many breakers are currently open.
func (s *BreakerSet) OpenCount() int {
	n := 0
	for _, st := range s.States() {
		if st == Open {
			n++
		}
	}
	return n
}

// Stats snapshots the set's counters.
func (s *BreakerSet) Stats() BreakerStats {
	if s == nil {
		return BreakerStats{}
	}
	return BreakerStats{
		Opened:       s.opened.Value(),
		FastFailures: s.fastFails.Value(),
		Probes:       s.probes.Value(),
	}
}
