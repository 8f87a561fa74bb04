package gossip

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mystore/internal/transport"
)

// cluster is a test harness: n gossipers on a MemNetwork driven by a
// virtual clock.
type cluster struct {
	net  *transport.MemNetwork
	eps  []*transport.MemTransport
	gs   []*Gossiper
	now  time.Time
	mu   sync.Mutex
	evts []Event
}

func newCluster(t *testing.T, n int, seeds []string) *cluster {
	t.Helper()
	c := &cluster{net: transport.NewMemNetwork(), now: time.Unix(1000, 0)}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("node-%d", i)
		ep, err := c.net.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		g := New(ep, Config{
			Seeds:    seeds,
			Interval: time.Second,
			Now:      func() time.Time { c.mu.Lock(); defer c.mu.Unlock(); return c.now },
			Seed:     int64(i + 1),
			OnEvent: func(e Event) {
				c.mu.Lock()
				c.evts = append(c.evts, e)
				c.mu.Unlock()
			},
		})
		ep.SetHandler(g.HandleMessage)
		c.eps = append(c.eps, ep)
		c.gs = append(c.gs, g)
	}
	return c
}

func (c *cluster) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// round ticks every gossiper once and advances the clock one interval.
func (c *cluster) round(skip map[int]bool) {
	for i, g := range c.gs {
		if skip[i] {
			continue
		}
		g.Tick(context.Background())
	}
	c.advance(time.Second)
}

func (c *cluster) events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.evts...)
}

func TestConvergenceViaSeeds(t *testing.T) {
	c := newCluster(t, 5, []string{"node-0"})
	for r := 0; r < 12; r++ {
		c.round(nil)
	}
	// Every node should know every endpoint.
	for i, g := range c.gs {
		if got := len(g.Endpoints()); got != 5 {
			t.Fatalf("node-%d knows %d endpoints after 12 rounds, want 5", i, got)
		}
	}
}

func TestStatePropagation(t *testing.T) {
	c := newCluster(t, 4, []string{"node-0"})
	for r := 0; r < 8; r++ {
		c.round(nil)
	}
	c.gs[2].SetLocal("load", "42")
	c.gs[2].SetLocal("vnodes", "100")
	for r := 0; r < 15; r++ {
		c.round(nil)
	}
	for i, g := range c.gs {
		if v, ok := g.Lookup("node-2", "load"); !ok || v != "42" {
			t.Fatalf("node-%d sees node-2 load = %q,%v", i, v, ok)
		}
		if v, _ := g.Lookup("node-2", "vnodes"); v != "100" {
			t.Fatalf("node-%d sees node-2 vnodes = %q", i, v)
		}
	}
}

func TestNewerVersionWins(t *testing.T) {
	c := newCluster(t, 3, []string{"node-0"})
	for r := 0; r < 8; r++ {
		c.round(nil)
	}
	c.gs[1].SetLocal("load", "old")
	for r := 0; r < 8; r++ {
		c.round(nil)
	}
	c.gs[1].SetLocal("load", "new")
	for r := 0; r < 10; r++ {
		c.round(nil)
	}
	for i, g := range c.gs {
		if v, _ := g.Lookup("node-1", "load"); v != "new" {
			t.Fatalf("node-%d stuck at load=%q", i, v)
		}
	}
}

func TestHeartbeatAdvances(t *testing.T) {
	c := newCluster(t, 3, []string{"node-0"})
	for r := 0; r < 6; r++ {
		c.round(nil)
	}
	before := c.gs[0].heartbeat("node-2")
	for r := 0; r < 6; r++ {
		c.round(nil)
	}
	after := c.gs[0].heartbeat("node-2")
	if after <= before {
		t.Fatalf("node-2 heartbeat as seen by node-0: %d -> %d, want increase", before, after)
	}
	if c.gs[0].heartbeat("ghost") != 0 {
		t.Fatal("unknown endpoint heartbeat should be 0")
	}
}

func TestShortFailureDetection(t *testing.T) {
	c := newCluster(t, 4, []string{"node-0"})
	for r := 0; r < 10; r++ {
		c.round(nil)
	}
	// node-3 goes silent (blocked process): it neither gossips nor answers.
	c.eps[3].Close()
	skip := map[int]bool{3: true}
	for r := 0; r < 6; r++ {
		c.round(skip)
	}
	if got := c.gs[0].StatusOf("node-3"); got != StatusShortFail {
		t.Fatalf("node-0 believes node-3 is %v, want short-fail", got)
	}
	found := false
	for _, e := range c.events() {
		if e.Addr == "node-3" && e.New == StatusShortFail {
			found = true
		}
	}
	if !found {
		t.Fatal("no short-fail event emitted")
	}
	// It resumes: status returns to up.
	c.eps[3].Reopen()
	for r := 0; r < 6; r++ {
		c.round(nil)
	}
	if got := c.gs[0].StatusOf("node-3"); got != StatusUp {
		t.Fatalf("node-3 after recovery = %v, want up", got)
	}
}

func TestLongFailureSeedConfirmedAndSpreads(t *testing.T) {
	c := newCluster(t, 5, []string{"node-0"})
	for r := 0; r < 10; r++ {
		c.round(nil)
	}
	// node-4 breaks down for good.
	c.eps[4].Close()
	skip := map[int]bool{4: true}
	for r := 0; r < 25; r++ {
		c.round(skip)
	}
	// The seed must have declared it, and the belief must reach everyone.
	for i := 0; i < 4; i++ {
		if got := c.gs[i].StatusOf("node-4"); got != StatusLongFail {
			t.Fatalf("node-%d believes node-4 is %v, want long-fail", i, got)
		}
	}
	// LiveEndpoints excludes it.
	for i := 0; i < 4; i++ {
		for _, a := range c.gs[i].LiveEndpoints() {
			if a == "node-4" {
				t.Fatalf("node-%d still lists node-4 live", i)
			}
		}
	}
}

func TestNormalNodesDoNotDeclareLongFail(t *testing.T) {
	// No seed present in the silent node's detectors: nobody escalates.
	c := newCluster(t, 3, []string{"node-absent"}) // seed never exists
	for r := 0; r < 10; r++ {
		c.round(nil)
	}
	skip := map[int]bool{2: true}
	for r := 0; r < 30; r++ {
		c.round(skip)
	}
	for i := 0; i < 2; i++ {
		if got := c.gs[i].StatusOf("node-2"); got == StatusLongFail {
			t.Fatalf("normal node-%d escalated to long-fail without a seed", i)
		}
	}
}

func TestDeclareAndReadmit(t *testing.T) {
	c := newCluster(t, 3, []string{"node-0"})
	for r := 0; r < 8; r++ {
		c.round(nil)
	}
	c.gs[0].DeclareLongFail("node-2")
	for r := 0; r < 10; r++ {
		c.round(map[int]bool{2: true})
	}
	if got := c.gs[1].StatusOf("node-2"); got != StatusLongFail {
		t.Fatalf("removal did not spread: node-1 sees %v", got)
	}
	c.gs[0].readmit("node-2")
	for r := 0; r < 10; r++ {
		c.round(nil)
	}
	if got := c.gs[1].StatusOf("node-2"); got == StatusLongFail {
		t.Fatal("readmission did not spread")
	}
}

func TestSeedAutoReadmitsReturningNode(t *testing.T) {
	// A node removed as long-failed comes back (crash-restart or healed
	// partition) and resumes gossiping. The seed hears from it directly —
	// proof of life — and must retract the removal on its own; no operator
	// readmit call. The retraction then spreads to every node.
	c := newCluster(t, 4, []string{"node-0"})
	for r := 0; r < 10; r++ {
		c.round(nil)
	}
	c.eps[3].Close()
	skip := map[int]bool{3: true}
	for r := 0; r < 25; r++ {
		c.round(skip)
	}
	if got := c.gs[0].StatusOf("node-3"); got != StatusLongFail {
		t.Fatalf("setup: seed sees node-3 as %v, want long-fail", got)
	}
	c.eps[3].Reopen()
	for r := 0; r < 30; r++ {
		c.round(nil)
	}
	for i := 0; i < 3; i++ {
		if got := c.gs[i].StatusOf("node-3"); got != StatusUp {
			t.Fatalf("node-%d still believes returned node-3 is %v, want up", i, got)
		}
	}
}

func TestIsSeed(t *testing.T) {
	c := newCluster(t, 2, []string{"node-0"})
	if !c.gs[0].IsSeed() {
		t.Error("node-0 should be a seed")
	}
	if c.gs[1].IsSeed() {
		t.Error("node-1 should not be a seed")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		statusUnknown:   "unknown",
		StatusUp:        "up",
		StatusShortFail: "short-fail",
		StatusLongFail:  "long-fail",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestDigestString(t *testing.T) {
	d := digest{Addr: "10.0.0.1:7000", Generation: 5, MaxVersion: 9}
	if got := d.String(); got != "10.0.0.1:7000;bootGeneration:5;maxVersion:9" {
		t.Fatalf("digest.String() = %q", got)
	}
}

// TestConvergenceRounds measures rounds-to-convergence for a status change,
// the property the push-pull design optimizes (paper Fig 6): everyone
// learns a new state in O(log n) expected rounds.
func TestConvergenceRounds(t *testing.T) {
	c := newCluster(t, 8, []string{"node-0"})
	for r := 0; r < 16; r++ {
		c.round(nil)
	}
	c.gs[3].SetLocal("marker", "v")
	rounds := 0
	for ; rounds < 40; rounds++ {
		c.round(nil)
		all := true
		for _, g := range c.gs {
			if v, _ := g.Lookup("node-3", "marker"); v != "v" {
				all = false
				break
			}
		}
		if all {
			break
		}
	}
	if rounds >= 40 {
		t.Fatal("marker did not converge in 40 rounds")
	}
	t.Logf("converged in %d rounds on 8 nodes", rounds+1)
}

// heartbeat returns addr's last seen heartbeat version.
func (g *Gossiper) heartbeat(addr string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if es, ok := g.states[addr]; ok {
		return es.Heartbeat
	}
	return 0
}

// readmit retracts the removal assertion for addr, as a seed's markHeard
// does when it hears from the node again.
func (g *Gossiper) readmit(addr string) {
	g.mu.Lock()
	es := g.states[g.self]
	next := es.maxVersion() + 1
	es.States[removedKey(addr)] = VersionedValue{Value: "0", Version: next}
	delete(g.removed, addr)
	if g.status[addr] == StatusLongFail {
		g.status[addr] = statusUnknown
	}
	g.mu.Unlock()
}
