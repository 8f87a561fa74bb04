package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mystore/internal/bson"
	"mystore/internal/docstore"
	"mystore/internal/merkle"
	"mystore/internal/nwr"
	"mystore/internal/ring"
	"mystore/internal/transport"
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

// TestAERoundIsAtMostTwoExchanges: a round between converged peers sends
// one node.ae.* message (the root), and a round over k diverged keys in k
// distinct leaves sends two (the row and the leaf digests) and leaves both
// nodes holding the newest version of every key.
func TestAERoundIsAtMostTwoExchanges(t *testing.T) {
	h := newHarness(t, 3)
	h.converge(8)
	a, b := h.nodes[0], h.nodes[1]
	var aeMsgs atomic.Int64
	h.net.SetFault(func(_, _, msgType string) error {
		if strings.HasPrefix(msgType, "node.ae.") {
			aeMsgs.Add(1)
		}
		return nil
	})
	apply := func(n *Node, key string, ver int64) {
		t.Helper()
		rec := nwr.Record{Key: key, Val: []byte(fmt.Sprint(ver)), IsData: true, Ver: ver, Origin: "o"}
		if err := n.Coordinator().ApplyLocal(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("conv-%02d", i)
		apply(a, key, 1)
		apply(b, key, 1)
	}
	round := func() int64 {
		before := aeMsgs.Load()
		a.merkleAntiEntropyRound(context.Background(), b.Addr())
		return aeMsgs.Load() - before
	}
	if got := round(); got != 1 {
		t.Fatalf("converged round sent %d node.ae.* messages, want 1", got)
	}

	// k keys in k distinct leaves: newer on a, newer on b, only on a, only
	// on b, in turn.
	const k = 8
	tree := merkle.New(merkle.DefaultLeafBits)
	leaves := map[uint32]bool{}
	var keys []string
	for i := 0; len(keys) < k; i++ {
		key := fmt.Sprintf("div-%03d", i)
		if leaf := tree.Leaf(ring.Hash(key)); !leaves[leaf] {
			leaves[leaf] = true
			keys = append(keys, key)
		}
	}
	for i, key := range keys {
		switch i % 4 {
		case 0:
			apply(a, key, 2)
			apply(b, key, 1)
		case 1:
			apply(a, key, 1)
			apply(b, key, 2)
		case 2:
			apply(a, key, 2)
		case 3:
			apply(b, key, 2)
		}
	}
	if got := round(); got != 2 {
		t.Fatalf("round over %d diverged leaves sent %d node.ae.* messages, want 2", k, got)
	}
	for _, n := range []*Node{a, b} {
		for _, key := range keys {
			if rec, found, _ := n.Coordinator().GetLocal(key); !found || rec.Ver != 2 {
				t.Fatalf("%s holds %s at version %d (found %v), want 2", n.Addr(), key, rec.Ver, found)
			}
		}
	}
	if got := round(); got != 1 {
		t.Fatalf("round after the repair sent %d node.ae.* messages, want 1", got)
	}
}

// TestAERoundRejectsMalformedAnswers: a row of the wrong length ends the
// round before the leaf exchange, and a leaf answer that is not a list of
// record documents ends it before any pull — even for the well-formed
// digests in it.
func TestAERoundRejectsMalformedAnswers(t *testing.T) {
	h := newHarness(t, 1)
	a := h.nodes[0]
	peer, err := h.net.Endpoint("fake:1")
	if err != nil {
		t.Fatal(err)
	}
	row := merkle.New(merkle.DefaultLeafBits).Row()
	row[0] ^= 1 // leaf 0 differs
	good := nwr.Record{Key: "k", Ver: 1, Origin: "o"}.ToDoc()
	answers := map[string]bson.D{
		MsgAELeaf: {{Key: "records", Value: bson.A{good, int64(7)}}},
	}
	peer.SetHandler(func(_ context.Context, msg transport.Message) (bson.D, error) {
		return answers[msg.Type], nil
	})
	sent := map[string]int{}
	h.net.SetFault(func(_, _, msgType string) error {
		sent[msgType]++
		return nil
	})
	for _, bad := range []any{row[:len(row)-8], "row", nil} {
		answers[MsgAERow] = bson.D{{Key: "row", Value: bad}}
		a.merkleAntiEntropyRound(context.Background(), "fake:1")
	}
	if sent[MsgAERow] != 3 || sent[MsgAELeaf] != 0 {
		t.Fatalf("malformed rows: sent %v, want 3 %s and no %s", sent, MsgAERow, MsgAELeaf)
	}
	answers[MsgAERow] = bson.D{{Key: "row", Value: row}}
	if pushed, pulled := a.merkleAntiEntropyRound(context.Background(), "fake:1"); pushed != 0 || pulled != 0 ||
		sent[MsgAELeaf] != 1 || sent[nwr.MsgGetReplica] != 0 {
		t.Fatalf("malformed digests: pushed %d, pulled %d, sent %v; want nothing moved after one %s", pushed, pulled, sent, MsgAELeaf)
	}
}

// docstoreFindAll returns empty find options (helper keeping test call
// sites short).
func docstoreFindAll() docstore.FindOptions { return docstore.FindOptions{} }
