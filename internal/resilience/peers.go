// Package resilience provides the availability machinery the storage
// cluster wires through its RPC paths: one health verdict per peer, a
// token-bucket retry budget, and jittered exponential backoff.
//
// The design goal (paper §6.2, Table 2) is that a dead or degraded peer
// costs its callers almost nothing: instead of burning a full CallTimeout
// per attempt per caller, a short run of failures makes the peer suspect
// and every caller fails over in microseconds until one real request, once
// a second, proves it back. The verdict has two inputs — call outcomes and
// gossip's short/long failure classification (paper §5) — and every RPC
// path asks the same question of it, so no two paths can disagree about a
// peer.
package resilience

import (
	"sync"
	"sync/atomic"
	"time"

	"mystore/internal/metrics"
)

// A run of suspectAfter consecutive transport failures makes an up peer
// suspect; a suspect peer is retried by one real request per suspectFor.
const (
	suspectAfter = 3
	suspectFor   = time.Second
)

// A peer's health verdict.
const (
	peerUp int32 = iota
	peerSuspect
	peerDown
)

type peer struct {
	state    atomic.Int32 // read without mu on the fast path
	failures atomic.Int32 // consecutive transport failures while up

	mu      sync.Mutex // serializes transitions
	until   time.Time  // while suspect: when the next probe may go
	probing bool       // while suspect: a probe went and has not reported
}

// PeerStats is a snapshot of a Peers view's counters.
type PeerStats struct {
	// Opened counts peers entering suspect or down, failed probes included.
	Opened int64
	// FastFailures counts calls refused because their peer was suspect or
	// down — each one is a CallTimeout a caller did not burn.
	FastFailures int64
	// Probes counts real requests admitted to a suspect peer once its
	// window ended.
	Probes int64
}

// Peers is one node's health verdict per peer. A peer is up, suspect until
// a time, or down:
//
//   - up → suspect after suspectAfter consecutive transport failures or on
//     gossip short failure, for suspectFor;
//   - any → down on gossip long failure; only gossip Up leaves down;
//   - suspect → up on a successful call (a remote application error is one:
//     the peer answered) or on gossip Up.
//
// Usable is the one question callers ask and Report the one outcome they
// give. It is safe for concurrent use.
type Peers struct {
	self string
	now  func() time.Time

	mu sync.RWMutex
	m  map[string]*peer

	opened    metrics.Counter
	fastFails metrics.Counter
	probes    metrics.Counter
}

// NewPeers returns a view in which every peer is up. self, this node's own
// address, is always usable.
func NewPeers(self string, now func() time.Time) *Peers {
	return &Peers{self: self, now: now, m: make(map[string]*peer)}
}

func (v *Peers) lookup(addr string) *peer {
	v.mu.RLock()
	p := v.m[addr]
	v.mu.RUnlock()
	return p
}

func (v *Peers) get(addr string) *peer {
	if p := v.lookup(addr); p != nil {
		return p
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	p := v.m[addr]
	if p == nil {
		p = &peer{}
		v.m[addr] = p
	}
	return p
}

// Usable reports whether a call to addr may go now: always for up peers and
// this node, never for down ones, and for a suspect peer only once its
// window has ended — then for exactly one caller, whose request is the probe,
// and the next probe waits another window. An up peer is answered under a
// shared lock without allocating.
func (v *Peers) Usable(addr string) bool {
	if addr == v.self {
		return true
	}
	p := v.lookup(addr)
	if p == nil || p.state.Load() == peerUp {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.state.Load() {
	case peerUp:
		return true
	case peerSuspect:
		if now := v.now(); !now.Before(p.until) {
			p.until = now.Add(suspectFor)
			p.probing = true
			v.probes.Inc()
			return true
		}
	}
	v.fastFails.Inc()
	return false
}

// IsUp reports whether the view holds addr up, neither suspect nor down. It
// grants no probe.
func (v *Peers) IsUp(addr string) bool {
	p := v.lookup(addr)
	return p == nil || p.state.Load() == peerUp
}

// Report records a call's outcome. ok is true whenever addr answered at the
// transport layer: a remote application error still proves the peer alive.
func (v *Peers) Report(addr string, ok bool) {
	if addr == v.self {
		return
	}
	p := v.lookup(addr)
	if ok && (p == nil || p.state.Load() == peerUp && p.failures.Load() == 0) {
		return
	}
	if p == nil {
		p = v.get(addr)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch st := p.state.Load(); {
	case ok && st != peerDown:
		p.upLocked()
	case !ok && st == peerUp && p.failures.Add(1) >= suspectAfter,
		!ok && st == peerSuspect && p.probing:
		v.setLocked(p, peerSuspect)
	}
}

// Suspect records gossip's short failure of addr. A down peer stays down.
func (v *Peers) Suspect(addr string) {
	p := v.get(addr)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state.Load() != peerDown {
		v.setLocked(p, peerSuspect)
	}
}

// Down records gossip's long failure of addr: no call goes until Up.
func (v *Peers) Down(addr string) {
	p := v.get(addr)
	p.mu.Lock()
	defer p.mu.Unlock()
	v.setLocked(p, peerDown)
}

// Up records gossip hearing from addr again.
func (v *Peers) Up(addr string) {
	p := v.get(addr)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.upLocked()
}

func (p *peer) upLocked() {
	p.state.Store(peerUp)
	p.failures.Store(0)
	p.probing = false
}

// setLocked moves p into suspect (for suspectFor from now) or down, counting
// it opened unless it was already held there with no probe out.
func (v *Peers) setLocked(p *peer, state int32) {
	if p.state.Load() != state || p.probing {
		v.opened.Inc()
	}
	p.state.Store(state)
	p.failures.Store(0)
	p.probing = false
	p.until = v.now().Add(suspectFor)
}

// NotUp returns how many peers are currently suspect or down.
func (v *Peers) NotUp() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := 0
	for _, p := range v.m {
		if p.state.Load() != peerUp {
			n++
		}
	}
	return n
}

// Stats snapshots the view's counters.
func (v *Peers) Stats() PeerStats {
	return PeerStats{
		Opened:       v.opened.Value(),
		FastFailures: v.fastFails.Value(),
		Probes:       v.probes.Value(),
	}
}
