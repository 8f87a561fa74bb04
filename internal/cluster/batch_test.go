package cluster

import (
	"context"
	"fmt"
	"testing"
)

// TestClientGetMany round-trips the batched read: Client → MsgGetMany → the
// serving node's coordinator GetMany → one nwr.get.replica per peer.
func TestClientGetMany(t *testing.T) {
	h := newQuorumHarness(t, 5, 3, 2, 2) // reads its own writes: W + R > N
	c := h.client(t)
	ctx := context.Background()
	want := map[string]string{}
	var keys []string
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("bulk-%02d", i)
		v := fmt.Sprintf("component-%02d", i)
		if err := c.Put(ctx, k, []byte(v)); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
		want[k] = v
		keys = append(keys, k)
	}
	found, failed, err := c.GetMany(ctx, append(keys, "bulk-ghost"))
	if err != nil {
		t.Fatalf("GetMany: %v", err)
	}
	if len(failed) != 0 {
		t.Fatalf("failed = %v", failed)
	}
	if len(found) != len(want) {
		t.Fatalf("found %d keys, want %d", len(found), len(want))
	}
	for k, v := range want {
		if string(found[k]) != v {
			t.Fatalf("found[%s] = %q, want %q", k, found[k], v)
		}
	}
	if _, ok := found["bulk-ghost"]; ok {
		t.Fatal("ghost key reported found")
	}
	// Exactly one node coordinated the whole batch.
	var batches int64
	for _, n := range h.nodes {
		batches += n.Coordinator().Stats().BatchGets
	}
	if batches != 1 {
		t.Fatalf("BatchGets across nodes = %d, want 1", batches)
	}

	// Empty request: no RPC, empty result.
	found, failed, err = c.GetMany(ctx, nil)
	if err != nil || len(found) != 0 || len(failed) != 0 {
		t.Fatalf("empty GetMany = %v, %v, %v", found, failed, err)
	}
}
