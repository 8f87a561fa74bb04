package consensus

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/nwr"
	"mystore/internal/transport"
)

// benchGroup boots three managers over transport/mem with durable WALs under
// b.TempDir() and map stores, and returns the manager leading key's range.
// The stores cost nothing, so the figure is the consensus layer's own: the
// log append, its fsync, one replication round and the commit.
func benchGroup(b *testing.B, key string) *Manager {
	b.Helper()
	net := transport.NewMemNetwork()
	addrs := []string{"b0", "b1", "b2"}
	managers := make([]*Manager, len(addrs))
	for i, addr := range addrs {
		ep, err := net.Endpoint(addr)
		if err != nil {
			b.Fatal(err)
		}
		var mu sync.Mutex
		store := map[string]nwr.Record{}
		m, err := NewManager(Options{
			Ranges:            4,
			ReplicationFactor: len(addrs),
			// Long enough that a slow fsync never looks like a dead leader.
			ElectionTimeout: 500 * time.Millisecond,
			WALDir:          b.TempDir(),
			SyncEveryAppend: true,
			Seed:            int64(7 + i),
		}, Env{
			Self: addr,
			Call: func(ctx context.Context, target, msgType string, body bson.D) (bson.D, error) {
				return ep.Call(ctx, target, transport.Message{Type: msgType, Body: body})
			},
			Apply: func(_ context.Context, rec nwr.Record) error {
				mu.Lock()
				store[rec.Key] = rec
				mu.Unlock()
				return nil
			},
			Read: func(key string) (nwr.Record, bool, error) {
				mu.Lock()
				defer mu.Unlock()
				rec, ok := store[key]
				return rec, ok, nil
			},
			Replicas: func(uint32) ([]string, error) { return addrs, nil },
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { m.Close() })
		ep.SetHandler(func(_ context.Context, msg transport.Message) (bson.D, error) {
			return m.HandleMessage(msg.Type, msg.Body)
		})
		managers[i] = m
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		for _, m := range managers {
			if m.Put(context.Background(), key, []byte("warm"), true) == nil {
				return m
			}
		}
	}
	b.Fatal("no leader within 10s")
	return nil
}

// BenchmarkPropose times one strong put of a 4 KiB record through a
// three-member group, from Put to the leader's local apply: serial (the
// latency a lone client sees) and with two proposers on the same range (what
// the group commit and the pipelined append loop make of concurrency).
func BenchmarkPropose(b *testing.B) {
	val := bytes.Repeat([]byte("x"), 4<<10)
	for _, proposers := range []int{1, 2} {
		b.Run(fmt.Sprintf("proposers=%d", proposers), func(b *testing.B) {
			keys := keysInRangeOf("bench", proposers)
			leader := benchGroup(b, keys[0])
			ctx := context.Background()
			b.ReportAllocs()
			b.SetBytes(int64(len(val)))
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := 0; p < proposers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := p; i < b.N; i += proposers {
						if err := leader.Put(ctx, keys[p], val, true); err != nil {
							b.Errorf("put: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
