package consensus

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchGroup boots three members over transport/mem with durable WALs and
// map stores (newMemGroup), and returns the manager leading key's range. The
// stores cost nothing, so the figure is the consensus layer's own: the log
// append, its fsync, one replication round and the commit.
func benchGroup(b *testing.B, key string) *Manager {
	b.Helper()
	_, nodes := newMemGroup(b, 3, Options{
		// Long enough that a slow fsync never looks like a dead leader.
		ElectionTimeout: 500 * time.Millisecond,
	})
	return memLeader(b, nodes, key).m
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
