package nwr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/docstore"
	"mystore/internal/ring"
	"mystore/internal/transport"
)

// TestGetManyBeyondOneResponse: when a peer's share of a batched read
// outgrows one response's budget, the read resumes at the consumed cursor
// and still returns every key.
func TestGetManyBeyondOneResponse(t *testing.T) {
	tc := newTestCluster(t, 5, defaultCfg())
	ctx := context.Background()
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 32<<10) }
	var keys []string
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("big-%02d", i)
		keys = append(keys, k)
		if err := tc.coords[0].Put(ctx, k, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		tc.waitReplicas(t, k, 3)
	}
	var mu sync.Mutex
	reads := map[string]int{}
	tc.net.SetFault(func(from, to, msgType string) error {
		if msgType == MsgGetReplica {
			mu.Lock()
			reads[to]++
			mu.Unlock()
		}
		return nil
	})
	results, err := tc.coords[1].GetMany(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, kr := range results {
		if kr.Err != nil || !bytes.Equal(kr.Val, val(i)) {
			t.Fatalf("key %q: %d bytes, %v", kr.Key, len(kr.Val), kr.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	most := 0
	for _, n := range reads {
		most = max(most, n)
	}
	if most < 2 {
		t.Fatalf("no peer needed a second response (reads per peer %v); the values do not exceed one budget", reads)
	}
}

// TestDigestReadOmitsValue: a digest read returns version, origin and
// tombstone of every record found, and no value.
func TestDigestReadOmitsValue(t *testing.T) {
	tc := newTestCluster(t, 2, Config{N: 1, W: 1, R: 1})
	holder := tc.coords[1]
	live := Record{Key: "live", Val: []byte("payload"), IsData: true, Ver: 7, Origin: "o1"}
	dead := Record{Key: "dead", IsData: true, Deleted: true, Ver: 9, Origin: "o2"}
	for _, rec := range []Record{live, dead} {
		if err := holder.ApplyLocal(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tc.coords[0].ReadRecords(context.Background(), tc.addrs[1], []string{"live", "absent", "dead"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("digest read found %d records, want 2", len(got))
	}
	for i, want := range []Record{live, dead} {
		rec := got[i]
		if len(rec.Val) != 0 || rec.Ver != want.Ver || rec.Origin != want.Origin || rec.Deleted != want.Deleted {
			t.Fatalf("digest of %s = %+v, want version %d, origin %s, deleted %v and no value",
				want.Key, rec, want.Ver, want.Origin, want.Deleted)
		}
	}
}

// TestReadStopsBeforeBudget: a response stops before transferBytes would be
// exceeded, but always carries the first record found, and consumed counts
// the absent keys it passed.
func TestReadStopsBeforeBudget(t *testing.T) {
	tc := newTestCluster(t, 1, Config{N: 1, W: 1, R: 1})
	c := tc.coords[0]
	for k, size := range map[string]int{"a": 150 << 10, "b": 150 << 10, "small": 1 << 10, "huge": 300 << 10} {
		if err := c.ApplyLocal(Record{Key: k, Val: make([]byte, size), IsData: true, Ver: 1, Origin: "o"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tt := range []struct {
		keys            bson.A
		found, consumed int
	}{
		{keys: bson.A{"absent", "a", "b"}, found: 1, consumed: 2},
		{keys: bson.A{"a", "small", "absent", "b"}, found: 2, consumed: 3},
		{keys: bson.A{"huge", "small"}, found: 1, consumed: 1},
		{keys: bson.A{"small", "absent", "a"}, found: 2, consumed: 3},
	} {
		resp, err := c.HandleMessage(context.Background(), transport.Message{Type: MsgGetReplica, Body: bson.D{
			{Key: "keys", Value: tt.keys},
		}})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := recordList(resp)
		consumed, _ := resp.Get("consumed")
		if err != nil || len(recs) != tt.found || consumed != int64(tt.consumed) {
			t.Fatalf("read of %v: %d records, consumed %v, %v; want %d and %d",
				tt.keys, len(recs), consumed, err, tt.found, tt.consumed)
		}
	}
}

// TestWriteRecordsCreditsAppliedPrefix: a put stops at the first record that
// fails to apply and answers the prefix before it, so WriteRecords reports
// exactly the records the target stored, and a resend of the rest completes.
func TestWriteRecordsCreditsAppliedPrefix(t *testing.T) {
	tc := newTestCluster(t, 2, Config{N: 1, W: 1, R: 1})
	var puts atomic.Int64
	tc.coords[1].OnLocalOp = func(op string, _ int) error {
		if op == "put" && puts.Add(1) == 20 {
			return errors.New("injected: apply failed")
		}
		return nil
	}
	recs := make([]Record, 40)
	for i := range recs {
		// 16 KiB values: a batch holds 15, so the 20th apply fails the second.
		recs[i] = Record{Key: fmt.Sprintf("w-%02d", i), Val: make([]byte, 16<<10), IsData: true, Ver: 1, Origin: "o"}
	}
	ctx := context.Background()
	acked, ok := tc.coords[0].WriteRecords(ctx, tc.addrs[1], recs)
	if ok || acked != 19 {
		t.Fatalf("WriteRecords = %d acked, ok %v; want the 19 records before the failed apply and a failure", acked, ok)
	}
	if st := tc.coords[0].Stats(); st.StreamBatches != 1 || st.StreamRecords != 19 {
		t.Fatalf("stream counters %d batches / %d records, want 1 / 19", st.StreamBatches, st.StreamRecords)
	}
	for i, rec := range recs {
		if _, found, _ := tc.coords[1].GetLocal(rec.Key); found != (i < acked) {
			t.Fatalf("target holds %s: %v, want %v", rec.Key, found, i < acked)
		}
	}
	if rest, ok := tc.coords[0].WriteRecords(ctx, tc.addrs[1], recs[acked:]); !ok || rest != len(recs)-acked {
		t.Fatalf("resend = %d acked, ok %v; want %d and success", rest, ok, len(recs)-acked)
	}
}

// TestHintWritebackDrainsThroughIntermittentApplyFailures: a target that is
// up but fails one apply in 20 still takes every parked hint in one
// writeback pass — each refused batch is credited with the records applied
// before the failure, and the rest are resent at once.
func TestHintWritebackDrainsThroughIntermittentApplyFailures(t *testing.T) {
	tc := newTestCluster(t, 2, Config{N: 1, W: 1, R: 1, CallTimeout: time.Second})
	holder, target := tc.coords[0], tc.addrs[1]
	ctx := context.Background()
	const hints = 300 // more than two writeback pages
	for i := 0; i < hints; i++ {
		rec := Record{Key: fmt.Sprintf("h-%03d", i), Val: []byte("v"), IsData: true, Ver: 1, Origin: "o"}
		if err := holder.storeHintLocal(ctx, target, rec); err != nil {
			t.Fatal(err)
		}
	}
	var puts atomic.Int64
	tc.coords[1].OnLocalOp = func(op string, _ int) error {
		if op == "put" && puts.Add(1)%20 == 0 {
			return errors.New("injected: apply failed")
		}
		return nil
	}
	holder.DeliverHints(ctx)
	if left := holder.HintCount(); left != 0 {
		t.Fatalf("%d of %d hints left parked after one writeback pass", left, hints)
	}
	if got := holder.Stats().HintsDelivered; got != hints {
		t.Fatalf("HintsDelivered = %d, want %d", got, hints)
	}
	for i := 0; i < hints; i++ {
		if _, found, _ := tc.coords[1].GetLocal(fmt.Sprintf("h-%03d", i)); !found {
			t.Fatalf("target lacks h-%03d after writeback", i)
		}
	}
}

// FuzzReplicaMessage feeds arbitrary bodies to HandleMessage as
// nwr.put.replica and nwr.get.replica: every body must produce an error or
// an answer that encodes cleanly — never a panic.
func FuzzReplicaMessage(f *testing.F) {
	store, err := docstore.Open(docstore.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	c, err := NewCoordinator(Config{N: 1, W: 1, R: 1}, "self", ring.New(), nil, store)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := Record{Key: fmt.Sprintf("k%d", i), Val: []byte("value"), IsData: true, Ver: int64(i + 1), Origin: "o"}
		if err := c.ApplyLocal(rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, get bool, body []byte) {
		doc, err := bson.Unmarshal(body)
		if err != nil {
			return
		}
		typ := MsgPutReplica
		if get {
			typ = MsgGetReplica
		}
		resp, err := c.HandleMessage(context.Background(), transport.Message{Type: typ, Body: doc})
		if err != nil {
			return
		}
		if _, err := bson.Marshal(resp); err != nil {
			t.Fatalf("%s answer does not encode: %v", typ, err)
		}
		if get {
			if _, err := recordList(resp); err != nil {
				t.Fatalf("%s answer carries malformed records: %v", typ, err)
			}
		}
	})
}
