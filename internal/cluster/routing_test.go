package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/ring"
)

// coordinated is how many eventual gets, puts and deletes each node has
// coordinated so far.
func (h *harness) coordinated() map[string]int64 {
	out := make(map[string]int64, len(h.nodes))
	for _, n := range h.nodes {
		st := n.Coordinator().Stats()
		out[n.Addr()] = st.Puts + st.Gets
	}
	return out
}

// seedClient connects a client that knows only the seed node.
func (h *harness) seedClient(t *testing.T) *Client {
	t.Helper()
	ep, err := h.net.Endpoint(fmt.Sprintf("client-%d:0", len(h.net.Addresses())))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(context.Background(), ep, []string{addr(0)}, ClientOptions{AutoRetry: true})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return c
}

// TestClientRoutesToPrimary: a client given one seed learns the ring from
// it, and sends every get, put and delete to the key's first successor.
func TestClientRoutesToPrimary(t *testing.T) {
	h := newHarness(t, 5)
	h.converge(12)
	c := h.seedClient(t)
	ctx := context.Background()
	before := h.coordinated()
	want := map[string]int64{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("route-%d", i)
		primary, err := h.nodes[0].Ring().Primary(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(ctx, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(ctx, key); err != nil && !errors.Is(err, ErrKeyNotFound) {
			t.Fatal(err)
		}
		if err := c.Delete(ctx, key); err != nil {
			t.Fatal(err)
		}
		want[primary] += 3
	}
	after := h.coordinated()
	for _, n := range h.nodes {
		if got := after[n.Addr()] - before[n.Addr()]; got != want[n.Addr()] {
			t.Fatalf("%s coordinated %d operations, want %d (the keys it is primary for)", n.Addr(), got, want[n.Addr()])
		}
	}
}

// TestClientRoutingLearnsNewNode: after a node joins, the first answer that
// carries the new ring fingerprint refreshes the client's ring, and keys
// the new node is primary for go to it.
func TestClientRoutingLearnsNewNode(t *testing.T) {
	h := newHarness(t, 4)
	h.converge(12)
	c := h.seedClient(t)
	ctx := context.Background()
	h.addNode(4, []string{addr(0)})
	h.converge(12)
	learned := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.ring.Contains(addr(4))
	}
	for i := 0; i < 5 && !learned(); i++ {
		if err := c.Put(ctx, fmt.Sprintf("learn-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Second)
		for !learned() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	if !learned() {
		t.Fatal("the client's ring never gained the new node")
	}
	key := ""
	for i := 0; key == ""; i++ {
		if p, _ := h.nodes[4].Ring().Primary(fmt.Sprintf("new-%d", i)); p == addr(4) {
			key = fmt.Sprintf("new-%d", i)
		}
	}
	before := h.nodes[4].Coordinator().Stats().Puts
	if err := c.Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := h.nodes[4].Coordinator().Stats().Puts - before; got != 1 {
		t.Fatalf("the new node coordinated %d puts of a key it is primary for, want 1", got)
	}
}

// TestClientWithStaleRingGetsEveryAnswer: a ring that lacks a member and
// lists one that is gone costs hops, not answers. Keys whose listed primary
// is gone retry on their next successor; the rest reach a node that
// coordinates them whether or not it replicates them.
func TestClientWithStaleRingGetsEveryAnswer(t *testing.T) {
	h := newHarnessNWR(t, 5, 3, 2, 2) // W + R > N: each read sees the write before it
	h.converge(12)
	c := h.seedClient(t)
	stale := bson.A{}
	for _, m := range append(h.nodes[0].Ring().Nodes()[1:], ring.Node{ID: "10.0.0.99:19870", Weight: 1}) {
		stale = append(stale, bson.D{{Key: "addr", Value: m.ID}, {Key: "weight", Value: int64(m.Weight)}})
	}
	c.setRing(bson.D{{Key: "ring", Value: stale}})
	c.refreshing.Store(true) // no refresh: the ring stays stale
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("stale-%d", i)
		val := []byte(fmt.Sprintf("v-%d", i))
		if err := c.Put(ctx, key, val); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
		if got, err := c.Get(ctx, key); err != nil || string(got) != string(val) {
			t.Fatalf("Get %s = %q, %v; want %q", key, got, err, val)
		}
		if err := c.Delete(ctx, key); err != nil {
			t.Fatalf("Delete %s: %v", key, err)
		}
		if _, err := c.Get(ctx, key); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("Get %s after Delete = %v, want ErrKeyNotFound", key, err)
		}
	}
}
