package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"mystore/internal/docstore"
	"mystore/internal/nwr"
)

func TestAntiEntropyRepairsMissingReplica(t *testing.T) {
	h := newHarness(t, 5)
	h.converge(12)
	c := h.client(t)
	ctx := context.Background()
	const records = 40
	for i := 0; i < records; i++ {
		if err := c.Put(ctx, fmt.Sprintf("ae-%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	h.converge(4) // let trailing replications land

	// Physically strip every replica off node 2 (silent data loss: disk
	// replaced, store wiped) without any membership change.
	victim := h.nodes[2]
	coll := victim.Store().C(nwr.RecordCollection)
	lost := 0
	for {
		docs, _ := coll.Find(nil, docstoreFindAll())
		if len(docs) == 0 {
			break
		}
		for _, d := range docs {
			id, _ := d.Get("_id")
			coll.Delete(id) //nolint:errcheck
			lost++
		}
	}
	if lost == 0 {
		t.Skip("victim held no replicas for the keyspace; nothing to verify")
	}

	// Anti-entropy rounds from the other nodes push the lost records back.
	deadline := 200
	for round := 0; round < deadline; round++ {
		for i, n := range h.nodes {
			if i != 2 {
				n.AntiEntropyRound(ctx)
			}
		}
		if coll.Len() >= lost {
			break
		}
	}
	if got := coll.Len(); got < lost {
		t.Fatalf("anti-entropy restored %d of %d lost replicas", got, lost)
	}
}

func TestAntiEntropyPullsNewerVersions(t *testing.T) {
	h := newHarness(t, 3)
	h.converge(8)
	c := h.client(t)
	ctx := context.Background()
	if err := c.Put(ctx, "ae-key", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	h.converge(2)
	// Force one replica stale: rewrite it with an ancient version.
	var victim *Node
	owners, _ := h.nodes[0].Ring().Successors("ae-key", 3)
	for _, n := range h.nodes {
		if n.Addr() == owners[0] {
			victim = n
		}
	}
	coll := victim.Store().C(nwr.RecordCollection)
	docs, _ := coll.Find(nil, docstoreFindAll())
	for _, d := range docs {
		if d.StringOr("self-key", "") == "ae-key" {
			id, _ := d.Get("_id")
			coll.Delete(id) //nolint:errcheck
		}
	}
	stale := nwr.Record{Key: "ae-key", Val: []byte("ancient"), Ver: 1, Origin: "old"}
	if err := victim.Coordinator().ApplyLocal(stale); err != nil {
		t.Fatal(err)
	}
	// The victim's own anti-entropy rounds pull the newer version.
	for round := 0; round < 50; round++ {
		victim.AntiEntropyRound(ctx)
		rec, found, _ := victim.Coordinator().GetLocal("ae-key")
		if found && string(rec.Val) == "v1" {
			return
		}
	}
	rec, _, _ := victim.Coordinator().GetLocal("ae-key")
	t.Fatalf("victim still stale after anti-entropy: %q", rec.Val)
}

func TestAntiEntropyNoPeers(t *testing.T) {
	h := newHarness(t, 1)
	pushed, pulled := h.nodes[0].AntiEntropyRound(context.Background())
	if pushed != 0 || pulled != 0 {
		t.Fatalf("single-node round did work: %d/%d", pushed, pulled)
	}
}

// TestPullAppliesEachRecordOnItsOwn: an anti-entropy pull applies every
// record it read independently, so a store that fails one apply in five
// still takes the other four.
func TestPullAppliesEachRecordOnItsOwn(t *testing.T) {
	h := newHarness(t, 2)
	puller, peer := h.nodes[0], h.nodes[1]
	// The hook goes in before any traffic; only the pull below writes here.
	var puts atomic.Int64
	puller.Coordinator().OnLocalOp = func(op string, _ int) error {
		if op == "put" && puts.Add(1)%5 == 0 {
			return errors.New("injected: apply failed")
		}
		return nil
	}
	h.converge(8)
	const records = 40
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("pull-%02d", i)
		rec := nwr.Record{Key: keys[i], Val: []byte("v"), IsData: true, Ver: 1, Origin: "a"}
		if err := peer.Coordinator().ApplyLocal(rec); err != nil {
			t.Fatal(err)
		}
	}
	if pulled := puller.pullRecords(context.Background(), peer.Addr(), keys); pulled != records*4/5 {
		t.Fatalf("pulled %d of %d records, want every one but the %d failed applies", pulled, records, records/5)
	}
}

// docstoreFindAll returns empty find options (helper keeping test call
// sites short).
func docstoreFindAll() docstore.FindOptions { return docstore.FindOptions{} }
