package consensus

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/nwr"
	"mystore/internal/ring"
	"mystore/internal/transport"
)

// lwwStore is a map store that merges by last-write-wins, as the document
// store's replica apply does.
type lwwStore struct {
	mu   sync.Mutex
	recs map[string]nwr.Record
}

func newLWWStore() *lwwStore { return &lwwStore{recs: map[string]nwr.Record{}} }

func (s *lwwStore) apply(_ context.Context, rec nwr.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.recs[rec.Key]; !ok || rec.Newer(old) {
		s.recs[rec.Key] = rec
	}
	return nil
}

func (s *lwwStore) read(key string) (nwr.Record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[key]
	return rec, ok, nil
}

// memNode is one member of a group over transport/mem: its endpoint, its
// manager and its store.
type memNode struct {
	*lwwStore
	addr string
	ep   *transport.MemTransport
	m    *Manager
}

// kill takes the member down as kill -9 would: unreachable, WAL abandoned.
func (n *memNode) kill() {
	n.ep.Close()
	n.m.Kill()
}

// newMemGroup boots n managers over one MemNetwork, each with a durable WAL
// under tb.TempDir(), replicating every range across all n members. opts
// supplies the tuning; Ranges defaults to 4 (keysInRangeOf's count). A
// snapshot's StreamRange copies the sender's records in the range straight
// into the receiver's store.
func newMemGroup(tb testing.TB, n int, opts Options) (*transport.MemNetwork, []*memNode) {
	tb.Helper()
	net := transport.NewMemNetwork()
	addrs := make([]string, n)
	nodes := make([]*memNode, n)
	byAddr := map[string]*memNode{}
	for i := range addrs {
		addrs[i] = fmt.Sprintf("m%d", i)
		nodes[i] = &memNode{lwwStore: newLWWStore(), addr: addrs[i]}
		byAddr[addrs[i]] = nodes[i]
	}
	if opts.Ranges == 0 {
		opts.Ranges = 4
	}
	opts.ReplicationFactor, opts.SyncEveryAppend = n, true
	for i, node := range nodes {
		ep, err := net.Endpoint(node.addr)
		if err != nil {
			tb.Fatal(err)
		}
		opts.WALDir, opts.Seed = tb.TempDir(), int64(7+i)
		m, err := NewManager(opts, Env{
			Self: node.addr,
			Call: func(ctx context.Context, target, msgType string, body bson.D) (bson.D, error) {
				return ep.Call(ctx, target, transport.Message{Type: msgType, Body: body})
			},
			Apply:    node.apply,
			Read:     node.read,
			Replicas: func(uint32) ([]string, error) { return addrs, nil },
			StreamRange: func(ctx context.Context, target string, lo, hi uint32) bool {
				if _, err := ep.Call(ctx, target, transport.Message{Type: "test.ping"}); err != nil {
					return false // the transport would not have carried the stream
				}
				node.mu.Lock()
				var recs []nwr.Record
				for k, rec := range node.recs {
					if inRange(ring.Hash(k), lo, hi) {
						recs = append(recs, rec)
					}
				}
				node.mu.Unlock()
				for _, rec := range recs {
					byAddr[target].apply(ctx, rec) //nolint:errcheck // a map store cannot fail
				}
				return true
			},
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { m.Close() })
		ep.SetHandler(func(_ context.Context, msg transport.Message) (bson.D, error) {
			if msg.Type == "test.ping" {
				return nil, nil
			}
			return m.HandleMessage(msg.Type, msg.Body)
		})
		node.ep, node.m = ep, m
	}
	return net, nodes
}

// memPut offers a strong put to every member in turn until one acks it, and
// returns that member (nil once ctx is done).
func memPut(ctx context.Context, nodes []*memNode, key string, val []byte) *memNode {
	for ctx.Err() == nil {
		for _, n := range nodes {
			if n.m.Put(ctx, key, val, true) == nil {
				return n
			}
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// memLeader elects a leader for key's range and returns it.
func memLeader(tb testing.TB, nodes []*memNode, key string) *memNode {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	leader := memPut(ctx, nodes, key, []byte("warm"))
	if leader == nil {
		tb.Fatalf("no leader for %q within 10s", key)
	}
	return leader
}

// TestLogHoldsOnlyWhatAReplicaNeeds: with every member acking, no replica
// keeps in memory more than the entries still in flight to some follower —
// the WAL and the store hold the rest. Before the memory trim, each replica
// kept every entry until maxLogEntries (1024) piled up.
func TestLogHoldsOnlyWhatAReplicaNeeds(t *testing.T) {
	_, nodes := newMemGroup(t, 3, Options{ElectionTimeout: 200 * time.Millisecond})
	const proposers, puts = 4, 5000
	keys := keysInRangeOf("held", proposers)
	rid := RangeOf(ring.Hash(keys[0]), 4)
	memLeader(t, nodes, keys[0])
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	peaks := make([]int, proposers)
	var wg sync.WaitGroup
	for p := 0; p < proposers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := p; i < puts; i += proposers {
				if memPut(ctx, nodes, keys[p], []byte(fmt.Sprint(i))) == nil {
					t.Errorf("put %s #%d never acked", keys[p], i)
					return
				}
				for _, n := range nodes {
					peaks[p] = max(peaks[p], n.m.LogEntries(rid))
				}
			}
		}()
	}
	wg.Wait()
	if got := slices.Max(peaks); got > 2*maxEntriesPerAppend {
		t.Fatalf("a replica held %d log entries in memory, want at most %d", got, 2*maxEntriesPerAppend)
	}
}

// TestLaggingPeerPinsLogUpToCap: a member that stops acking keeps the
// leader's memory from being trimmed past it, but only up to maxLogEntries;
// then the trim goes to the applied index and the member, once back, catches
// up by snapshot with every value.
func TestLaggingPeerPinsLogUpToCap(t *testing.T) {
	const maxLog = 32
	net, nodes := newMemGroup(t, 3, Options{ElectionTimeout: 100 * time.Millisecond, maxLogEntries: maxLog})
	keys := keysInRangeOf("pinned", 3*maxLog)
	rid := RangeOf(ring.Hash(keys[0]), 4)
	leader := memLeader(t, nodes, keys[0])
	var lagger *memNode
	for _, n := range nodes {
		if n != leader {
			lagger = n
			break
		}
	}
	errFaulted := errors.New("test: member faulted")
	net.SetFault(func(from, to, _ string) error {
		if from == lagger.addr || to == lagger.addr {
			return errFaulted
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	live := []*memNode{}
	for _, n := range nodes {
		if n != lagger {
			live = append(live, n)
		}
	}
	for _, k := range keys {
		acker := memPut(ctx, live, k, []byte("v-"+k))
		if acker == nil {
			t.Fatalf("put %s never acked", k)
		}
		if held := acker.m.LogEntries(rid); held > maxLog+1 {
			t.Fatalf("the leader holds %d log entries with a member faulted, want at most %d", held, maxLog+1)
		}
	}
	net.SetFault(nil)
	waitFor(t, 20*time.Second, "the faulted member to catch up", func() bool {
		for _, k := range keys {
			if rec, ok, _ := lagger.read(k); !ok || string(rec.Val) != "v-"+k {
				return false
			}
		}
		return true
	})
	// The snapshot streams the records before it installs its marker, and a
	// marker refused for a stale term is sent again, so the values can be
	// readable a moment before the install counts.
	waitFor(t, 5*time.Second, "the faulted member to install a snapshot, not catch up from the log (the leader kept more than maxLogEntries for it)", func() bool {
		return lagger.m.Stats().SnapshotsInstalled > 0
	})
}

// TestNewLeaderFeedsCurrentFollowerFromItsLog: a follower keeps in memory
// every entry some other follower may still lack (the floor the leader
// sends), so when the leader dies the new one feeds the trailing follower from
// its own log rather than streaming it the whole range.
func TestNewLeaderFeedsCurrentFollowerFromItsLog(t *testing.T) {
	net, nodes := newMemGroup(t, 3, Options{ElectionTimeout: 100 * time.Millisecond})
	key := "feed"
	leader := memLeader(t, nodes, key)
	var slow *memNode
	for _, n := range nodes {
		if n != leader {
			slow = n
			break
		}
	}
	// The slow follower hears everything late, so the other follower applies
	// entries the slow one has not received yet.
	net.SetLatencyModel(func(_, to string, _ int) time.Duration {
		if to == slow.addr {
			return 2 * time.Millisecond
		}
		return 0
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var acked atomic.Int64
	stop := make(chan struct{})
	loaded := make(chan struct{})
	go func() {
		defer close(loaded)
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if memPut(ctx, nodes, key, []byte(fmt.Sprint(i))) == nil {
				return
			}
			acked.Store(i)
		}
	}()
	waitFor(t, 10*time.Second, "load before the kill", func() bool { return acked.Load() >= 200 })
	leader.kill()
	killedAt := acked.Load()
	waitFor(t, 10*time.Second, "load after the failover", func() bool { return acked.Load() >= killedAt+100 })
	close(stop)
	<-loaded
	last := fmt.Sprint(acked.Load())
	waitFor(t, 10*time.Second, "the slow follower to apply the last write", func() bool {
		rec, _, _ := slow.read(key)
		return string(rec.Val) == last
	})
	for _, n := range nodes {
		if sent := n.m.Stats().SnapshotsSent; sent != 0 {
			t.Fatalf("%s sent %d snapshots: the new leader no longer held what the slow follower lacked", n.addr, sent)
		}
	}
}
