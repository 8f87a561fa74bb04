package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/gossip"
	"mystore/internal/nwr"
	"mystore/internal/resilience"
	"mystore/internal/transport"
)

// failCallsTo makes every non-gossip message from node 0 to addr fail at the
// transport, counting them; gossip between the two keeps working, so gossip
// goes on reporting addr up. heal lifts the fault.
func (h *harness) failCallsTo(addr string) (calls *atomic.Int64, heal func()) {
	calls = new(atomic.Int64)
	h.net.SetFault(func(from, to, msgType string) error {
		if from == h.nodes[0].Addr() && to == addr && !strings.HasPrefix(msgType, "gossip.") {
			calls.Add(1)
			return errors.New("injected: peer drops the call")
		}
		return nil
	})
	return calls, func() { h.net.SetFault(nil) }
}

// suspectPeer makes v hold addr suspect the way failed calls do: it reports
// failures until the peer is no longer up.
func suspectPeer(v *resilience.Peers, addr string) {
	for i := 0; i < 10 && v.IsUp(addr); i++ {
		v.Report(addr, false)
	}
}

// sharedKeys returns n keys whose replica sets hold both node 0 and peer.
func (h *harness) sharedKeys(peer string, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		key := fmt.Sprintf("shared-%d", i)
		owners, err := h.nodes[0].Ring().Successors(key, 3)
		if err != nil {
			h.t.Fatal(err)
		}
		if slices.Contains(owners, h.nodes[0].Addr()) && slices.Contains(owners, peer) {
			keys = append(keys, key)
		}
	}
	return keys
}

// parkHint parks rec on node 0 as a hint for target, as a stand-in would.
func (h *harness) parkHint(target string, rec nwr.Record) {
	_, err := h.nodes[0].Coordinator().HandleMessage(context.Background(), transport.Message{
		Type: nwr.MsgHintStore,
		Body: bson.D{{Key: "target", Value: target}, {Key: "record", Value: rec.ToDoc()}},
	})
	if err != nil {
		h.t.Fatal(err)
	}
}

// TestOneVerdictAcrossPaths: a peer gossip reports up while its calls fail
// is treated alike by the write fan-out, hint writeback and rebalance. Once
// three failed calls make it suspect, each path skips it for the same
// window, and when the window ends sends exactly one real request, the
// probe.
func TestOneVerdictAcrossPaths(t *testing.T) {
	rec := func(key string) nwr.Record {
		return nwr.Record{Key: key, Val: []byte("v"), IsData: true, Ver: 1, Origin: "o"}
	}
	paths := []struct {
		name  string
		setup func(h *harness, peer string, keys []string)
		run   func(h *harness, keys []string)
	}{
		{"write fan-out", func(*harness, string, []string) {}, func(h *harness, keys []string) {
			// W = N: Put returns once every replica write, the suspect
			// peer's hinted one included, is done.
			if err := h.nodes[0].Coordinator().Put(context.Background(), keys[0], []byte("v")); err != nil {
				h.t.Fatalf("Put: %v", err)
			}
		}},
		{"hint writeback", func(h *harness, peer string, keys []string) {
			h.parkHint(peer, rec(keys[0]))
		}, func(h *harness, _ []string) {
			h.nodes[0].Coordinator().DeliverHints(context.Background())
		}},
		{"rebalance", func(h *harness, _ string, keys []string) {
			for _, key := range keys {
				if err := h.nodes[0].Coordinator().ApplyLocal(rec(key)); err != nil {
					h.t.Fatal(err)
				}
			}
		}, func(h *harness, _ []string) {
			h.nodes[0].Rebalance(context.Background())
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			h := newHarnessNWR(t, 5, 3, 3, 1)
			h.converge(12)
			ctx := context.Background()
			a, peer := h.nodes[0], addr(2)
			keys := h.sharedKeys(peer, 4)
			p.setup(h, peer, keys)
			calls, _ := h.failCallsTo(peer)
			for i := 0; i < 3; i++ {
				a.Coordinator().ReadRecords(ctx, peer, keys[:1], true) //nolint:errcheck // fails by design
			}
			if a.Breakers().NotUp() != 1 || calls.Load() != 3 {
				t.Fatalf("after 3 failed calls: %d peers not up, %d calls; want 1 and 3", a.Breakers().NotUp(), calls.Load())
			}
			p.run(h, keys)
			if got := calls.Load(); got != 3 {
				t.Fatalf("inside the suspect window the path sent %d calls to the peer, want 0", got-3)
			}
			h.advance(time.Second)
			p.run(h, keys)
			p.run(h, keys)
			if got := calls.Load(); got != 4 {
				t.Fatalf("after the window the path sent %d calls to the peer, want exactly 1 probe", got-3)
			}
			if st := a.Gossiper().StatusOf(peer); st != gossip.StatusUp {
				t.Fatalf("gossip status of the peer = %v, want up throughout", st)
			}
		})
	}
}

// TestReturningPeerGetsHintsOnFirstTick: a peer whose calls failed — a
// crash gossip never noticed — gets its parked hints on the first Tick after
// its first successful call, with no backoff to wait out.
func TestReturningPeerGetsHintsOnFirstTick(t *testing.T) {
	h := newHarness(t, 5)
	h.converge(12)
	ctx := context.Background()
	a, peer := h.nodes[0], addr(2)
	keys := h.sharedKeys(peer, 3)
	for _, key := range keys {
		h.parkHint(peer, nwr.Record{Key: key, Val: []byte("v"), IsData: true, Ver: 1, Origin: "o"})
	}
	calls, heal := h.failCallsTo(peer)
	h.converge(8) // every node ticks: hint writeback to the peer keeps failing
	if calls.Load() == 0 || a.Coordinator().HintCount() != len(keys) || a.Breakers().NotUp() != 1 {
		t.Fatalf("during the outage: %d calls, %d hints, %d peers not up; want > 0, %d, 1",
			calls.Load(), a.Coordinator().HintCount(), a.Breakers().NotUp(), len(keys))
	}
	if st := a.Gossiper().StatusOf(peer); st != gossip.StatusUp {
		t.Fatalf("gossip status of the peer = %v, want up: gossip must not notice", st)
	}

	heal()
	if _, err := a.Coordinator().ReadRecords(ctx, peer, keys[:1], true); err != nil {
		t.Fatalf("first call after the peer returned: %v", err)
	}
	a.Tick(ctx)
	if n := a.Coordinator().HintCount(); n != 0 {
		t.Fatalf("%d hints still parked after the first Tick", n)
	}
	for _, key := range keys {
		if _, found, _ := h.nodes[2].Coordinator().GetLocal(key); !found {
			t.Fatalf("hinted record %q not on the returned peer", key)
		}
	}
}

// TestCallOutcomeOutranksGossipSilence: gossip's silence about a peer does not
// move the peer view. A partition between a and b heals before any long
// failure, leaving a's gossip five intervals behind on b; a call that b
// answers proves it up, and a's next Tick, whose gossip round goes to another
// peer, leaves it up. Only failed calls make a peer suspect.
func TestCallOutcomeOutranksGossipSilence(t *testing.T) {
	h := newHarness(t, 3)
	h.converge(8)
	ctx := context.Background()
	a, b := h.nodes[0], addr(2) // after these rounds a's gossip goes to addr(1)
	var gossipedWith atomic.Value
	h.net.SetFault(func(from, to, msgType string) error {
		if from == a.Addr() && msgType == gossip.MsgSyn {
			gossipedWith.Store(to)
		}
		return nil
	})
	h.advance(5 * time.Second) // five gossip intervals: no exchange, no long failure
	if _, err := a.Coordinator().CallPeer(ctx, b, MsgVersion, nil); err != nil {
		t.Fatalf("call from a to b after the heal: %v", err)
	}
	a.Tick(ctx)
	if to, _ := gossipedWith.Load().(string); to == "" || to == b {
		t.Fatalf("a's gossip round went to %q; the test needs a round to a peer other than b", to)
	}
	if !a.Breakers().IsUp(b) {
		t.Fatal("a's view holds b suspect or down after a successful call and a Tick; want up")
	}
}
