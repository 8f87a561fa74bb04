package gossip

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mystore/internal/bson"
	"mystore/internal/transport"
)

// Message types the gossiper registers on the transport.
const (
	MsgSyn  = "gossip.syn"
	MsgAck2 = "gossip.ack2"
)

// Event reports a believed status change for an endpoint.
type Event struct {
	Addr string
	Old  Status
	New  Status
}

// longFailTicks is the failure detector's one threshold: a seed declares an
// endpoint silent for this many gossip intervals long-failed.
const longFailTicks = 10

// Config tunes a Gossiper.
type Config struct {
	// Seeds are the cluster's seed addresses. A node is a seed if its own
	// address appears here. Seeds confirm long failures (§5.2.4).
	Seeds []string
	// Interval is the tick period. A *seed* declares an endpoint silent for
	// longFailTicks of them long-failed. Zero means 1s.
	Interval time.Duration
	// Now overrides the clock (deterministic tests). Nil means time.Now.
	Now func() time.Time
	// Seed seeds the peer-selection RNG. Zero derives from the address.
	Seed int64
	// OnEvent, when non-nil, receives status-change events synchronously
	// from Tick and message handling.
	OnEvent func(Event)
}

func (c Config) withDefaults(self string) Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Seed == 0 {
		var h int64
		for _, b := range []byte(self) {
			h = h*131 + int64(b)
		}
		c.Seed = h | 1
	}
	return c
}

// Gossiper runs the protocol for one node. Wire it to a transport by
// routing MsgSyn and MsgAck2 messages to HandleMessage, then call Tick once
// per Interval (the cluster node's RunLoop does).
type Gossiper struct {
	mu        sync.Mutex
	self      string
	cfg       Config
	tr        transport.Transport
	rng       *rand.Rand
	states    map[string]*EndpointState
	lastHeard map[string]time.Time
	status    map[string]Status
	removed   map[string]bool // addresses with an applied removal assertion
}

// New creates a gossiper for the node at tr.Addr().
func New(tr transport.Transport, cfg Config) *Gossiper {
	self := tr.Addr()
	cfg = cfg.withDefaults(self)
	now := cfg.Now()
	g := &Gossiper{
		self:      self,
		cfg:       cfg,
		tr:        tr,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		states:    map[string]*EndpointState{},
		lastHeard: map[string]time.Time{},
		status:    map[string]Status{},
		removed:   map[string]bool{},
	}
	g.states[self] = &EndpointState{
		Generation: now.UnixNano(),
		Heartbeat:  1,
		States:     map[string]VersionedValue{},
	}
	g.status[self] = StatusUp
	g.lastHeard[self] = now
	return g
}

// IsSeed reports whether this node is a seed.
func (g *Gossiper) IsSeed() bool {
	for _, s := range g.cfg.Seeds {
		if s == g.self {
			return true
		}
	}
	return false
}

// SetLocal publishes a key/value in this node's own state group, bumping
// its version so it spreads on subsequent rounds.
func (g *Gossiper) SetLocal(key, value string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	es := g.states[g.self]
	next := es.maxVersion() + 1
	es.States[key] = VersionedValue{Value: value, Version: next}
	if subject, ok := removedSubject(key); ok {
		g.applyRemovalLocked(subject, value == "1")
	}
}

// Lookup returns the value of key in addr's state group.
func (g *Gossiper) Lookup(addr, key string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	es, ok := g.states[addr]
	if !ok {
		return "", false
	}
	vv, ok := es.States[key]
	return vv.Value, ok
}

// StatusOf returns the believed status of addr.
func (g *Gossiper) StatusOf(addr string) Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.status[addr]
}

// Endpoints lists every address the gossiper has state for, sorted.
func (g *Gossiper) Endpoints() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.states))
	for a := range g.states {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Tick runs one gossip round: bump own heartbeat, exchange with one random
// live peer (preferring a seed when this node is not one), then run the
// failure detector.
func (g *Gossiper) Tick(ctx context.Context) {
	g.mu.Lock()
	now := g.cfg.Now()
	self := g.states[g.self]
	self.Heartbeat = self.maxVersion() + 1
	g.lastHeard[g.self] = now
	peer := g.choosePeerLocked()
	g.mu.Unlock()

	if peer != "" {
		g.gossipWith(ctx, peer)
	}
	g.detectFailures(now)
}

// choosePeerLocked picks a gossip target: usually a random known live
// endpoint; with probability 0.3 (or when nothing else is known) a seed.
// Caller holds mu.
func (g *Gossiper) choosePeerLocked() string {
	var candidates []string
	for a := range g.states {
		if a != g.self && g.status[a] != StatusLongFail {
			candidates = append(candidates, a)
		}
	}
	sort.Strings(candidates)
	var seeds []string
	for _, s := range g.cfg.Seeds {
		if s != g.self {
			seeds = append(seeds, s)
		}
	}
	if len(candidates) == 0 || (len(seeds) > 0 && g.rng.Float64() < 0.3) {
		if len(seeds) == 0 {
			if len(candidates) == 0 {
				return ""
			}
			return candidates[g.rng.Intn(len(candidates))]
		}
		return seeds[g.rng.Intn(len(seeds))]
	}
	return candidates[g.rng.Intn(len(candidates))]
}

// gossipWith runs the Syn/Ack1/Ack2 exchange with peer.
func (g *Gossiper) gossipWith(ctx context.Context, peer string) {
	g.mu.Lock()
	syn := bson.D{{Key: "digests", Value: digestsToBSON(g.digestsLocked())}}
	g.mu.Unlock()

	ack1, err := g.tr.Call(ctx, peer, transport.Message{Type: MsgSyn, Body: syn})
	if err != nil {
		return // peer unreachable; the failure detector will notice
	}
	g.markHeard(peer)

	// Apply the states the peer pushed (it had newer versions).
	if sv, ok := ack1.Get("states"); ok {
		g.applyStates(statesFromBSON(sv))
	}
	// Send back the states the peer asked for (the pull half).
	wants := digestsFromBSON(func() any { v, _ := ack1.Get("want"); return v }())
	if len(wants) == 0 {
		return
	}
	g.mu.Lock()
	reply := map[string]*EndpointState{}
	for _, w := range wants {
		if es, ok := g.states[w.Addr]; ok && es.newerThan(w.Generation, w.MaxVersion) {
			reply[w.Addr] = es.clone()
		}
	}
	g.mu.Unlock()
	if len(reply) == 0 {
		return
	}
	body := bson.D{{Key: "states", Value: statesToBSON(reply)}}
	g.tr.Call(ctx, peer, transport.Message{Type: MsgAck2, Body: body}) //nolint:errcheck
}

// HandleMessage processes an incoming gossip message; route transport
// messages of type MsgSyn and MsgAck2 here.
func (g *Gossiper) HandleMessage(_ context.Context, msg transport.Message) (bson.D, error) {
	switch msg.Type {
	case MsgSyn:
		g.markHeard(msg.From)
		remote := digestsFromBSON(func() any { v, _ := msg.Body.Get("digests"); return v }())
		push, want := g.diff(remote)
		return bson.D{
			{Key: "states", Value: statesToBSON(push)},
			{Key: "want", Value: digestsToBSON(want)},
		}, nil
	case MsgAck2:
		g.markHeard(msg.From)
		if sv, ok := msg.Body.Get("states"); ok {
			g.applyStates(statesFromBSON(sv))
		}
		return bson.D{}, nil
	default:
		return nil, nil
	}
}

// digestsLocked summarizes everything this node knows. Caller holds mu.
func (g *Gossiper) digestsLocked() []digest {
	ds := make([]digest, 0, len(g.states))
	for addr, es := range g.states {
		ds = append(ds, digest{Addr: addr, Generation: es.Generation, MaxVersion: es.maxVersion()})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Addr < ds[j].Addr })
	return ds
}

// diff compares remote digests with local state: push = states strictly
// newer here; want = digests for endpoints where the remote is newer (or
// unknown here).
func (g *Gossiper) diff(remote []digest) (push map[string]*EndpointState, want []digest) {
	g.mu.Lock()
	defer g.mu.Unlock()
	push = map[string]*EndpointState{}
	seen := map[string]bool{}
	for _, rd := range remote {
		seen[rd.Addr] = true
		local, ok := g.states[rd.Addr]
		switch {
		case !ok:
			want = append(want, rd.withZeroVersion())
		case local.newerThan(rd.Generation, rd.MaxVersion):
			push[rd.Addr] = local.clone()
		case rd.Generation > local.Generation || (rd.Generation == local.Generation && rd.MaxVersion > local.maxVersion()):
			want = append(want, digest{Addr: rd.Addr, Generation: local.Generation, MaxVersion: local.maxVersion()})
		}
	}
	// Push endpoints the remote has never heard of.
	for addr, es := range g.states {
		if !seen[addr] {
			push[addr] = es.clone()
		}
	}
	return push, want
}

func (d digest) withZeroVersion() digest {
	return digest{Addr: d.Addr, Generation: 0, MaxVersion: 0}
}

// applyStates merges received endpoint states that are newer than local
// knowledge, triggering status events for new or revived endpoints and
// applying removal assertions.
func (g *Gossiper) applyStates(remote map[string]*EndpointState) {
	if len(remote) == 0 {
		return
	}
	var events []Event
	g.mu.Lock()
	now := g.cfg.Now()
	for addr, res := range remote {
		local, ok := g.states[addr]
		if ok && !res.newerThan(local.Generation, local.maxVersion()) {
			continue
		}
		g.states[addr] = res.clone()
		g.lastHeard[addr] = now
		if addr != g.self && !g.removed[addr] && g.status[addr] != StatusUp {
			events = append(events, Event{Addr: addr, Old: g.status[addr], New: StatusUp})
			g.status[addr] = StatusUp
		}
		// Scan for removal assertions carried in this state group.
		for key, vv := range res.States {
			if subject, ok := removedSubject(key); ok {
				g.applyRemovalLocked(subject, vv.Value == "1")
			}
		}
	}
	// Re-derive statuses impacted by new removal knowledge.
	for addr := range g.states {
		if g.removed[addr] && g.status[addr] != StatusLongFail && addr != g.self {
			events = append(events, Event{Addr: addr, Old: g.status[addr], New: StatusLongFail})
			g.status[addr] = StatusLongFail
		}
	}
	cb := g.cfg.OnEvent
	g.mu.Unlock()
	if cb != nil {
		for _, e := range events {
			cb(e)
		}
	}
}

// applyRemovalLocked records a removal (or un-removal) assertion. Caller
// holds mu.
func (g *Gossiper) applyRemovalLocked(addr string, removed bool) {
	if removed {
		g.removed[addr] = true
	} else {
		delete(g.removed, addr)
	}
}

// markHeard refreshes the liveness clock for addr and marks it up. A seed
// hearing *directly* from an address it removed
// has proof the node is back (a crash-restart or healed partition that
// outlasted longFailTicks intervals), so it retracts the removal assertion — without
// this, a long-failed node that returns stays exiled forever because every
// revival path checks the removed set first.
func (g *Gossiper) markHeard(addr string) {
	if addr == "" || addr == g.self {
		return
	}
	var ev *Event
	g.mu.Lock()
	g.lastHeard[addr] = g.cfg.Now()
	if g.removed[addr] && g.IsSeed() {
		es := g.states[g.self]
		next := es.maxVersion() + 1
		es.States[removedKey(addr)] = VersionedValue{Value: "0", Version: next}
		delete(g.removed, addr)
	}
	if _, known := g.states[addr]; known && !g.removed[addr] && g.status[addr] != StatusUp {
		ev = &Event{Addr: addr, Old: g.status[addr], New: StatusUp}
		g.status[addr] = StatusUp
	}
	cb := g.cfg.OnEvent
	g.mu.Unlock()
	if ev != nil && cb != nil {
		cb(*ev)
	}
}

// detectFailures applies the staleness threshold. Only seeds judge silence,
// escalating it to long failure and publishing the removal so it spreads
// (§5.2.4: "the seed nodes are responsible for detecting 'long failure'
// node, instead of normal"). A short failure is the callers' own verdict
// (resilience.Peers), not gossip's.
func (g *Gossiper) detectFailures(now time.Time) {
	if !g.IsSeed() {
		return
	}
	var toRemove []string
	g.mu.Lock()
	for addr := range g.states {
		if addr == g.self || g.removed[addr] {
			continue
		}
		heard, ok := g.lastHeard[addr]
		if !ok {
			g.lastHeard[addr] = now
			continue
		}
		if now.Sub(heard) >= longFailTicks*g.cfg.Interval {
			toRemove = append(toRemove, addr)
		}
	}
	g.mu.Unlock()
	for _, addr := range toRemove {
		g.DeclareLongFail(addr)
	}
}

// DeclareLongFail publishes a removal assertion for addr (seed action) and
// applies it locally.
func (g *Gossiper) DeclareLongFail(addr string) {
	var ev *Event
	g.mu.Lock()
	es := g.states[g.self]
	next := es.maxVersion() + 1
	es.States[removedKey(addr)] = VersionedValue{Value: "1", Version: next}
	g.removed[addr] = true
	if g.status[addr] != StatusLongFail {
		ev = &Event{Addr: addr, Old: g.status[addr], New: StatusLongFail}
		g.status[addr] = StatusLongFail
	}
	cb := g.cfg.OnEvent
	g.mu.Unlock()
	if ev != nil && cb != nil {
		cb(*ev)
	}
}
