package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mystore/internal/bson"
)

// TestMuxSharesOneConnection: many concurrent calls to one peer must ride a
// single multiplexed connection, not one connection each.
func TestMuxSharesOneConnection(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		time.Sleep(10 * time.Millisecond) // hold calls in flight together
		return bson.D{}, nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Call(context.Background(), b.Addr(), Message{Type: "x"}); err != nil {
				t.Errorf("call: %v", err)
			}
		}()
	}
	wg.Wait()
	b.mu.Lock()
	conns := len(b.serving)
	b.mu.Unlock()
	if conns != 1 {
		t.Fatalf("server sees %d connections from one mux peer, want 1", conns)
	}
	a.mu.Lock()
	muxes := len(a.muxConns)
	a.mu.Unlock()
	if muxes != 1 {
		t.Fatalf("client holds %d mux conns, want 1", muxes)
	}
}

// TestMuxSlowCallDoesNotBlockOthers: a slow handler must not head-of-line
// block pipelined calls sharing the connection.
func TestMuxSlowCallDoesNotBlockOthers(t *testing.T) {
	a, b := tcpPair(t)
	release := make(chan struct{})
	b.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		if msg.Type == "slow" {
			<-release
		}
		return bson.D{{Key: "t", Value: msg.Type}}, nil
	})
	slowDone := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), b.Addr(), Message{Type: "slow"})
		slowDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the slow call get in flight first
	start := time.Now()
	if _, err := a.Call(context.Background(), b.Addr(), Message{Type: "fast"}); err != nil {
		t.Fatalf("fast call: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("fast call took %v behind a stalled slow call", d)
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestMuxTimeoutLeavesConnectionUsable: a timed-out call abandons its
// request id; the connection keeps serving later calls, and the late
// response is dropped rather than delivered to the wrong caller.
func TestMuxTimeoutLeavesConnectionUsable(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		if msg.Type == "slow" {
			time.Sleep(80 * time.Millisecond)
		}
		return bson.D{{Key: "t", Value: msg.Type}}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, b.Addr(), Message{Type: "slow"}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	for i := 0; i < 5; i++ {
		resp, err := a.Call(context.Background(), b.Addr(), Message{Type: "ok"})
		if err != nil {
			t.Fatalf("call after timeout: %v", err)
		}
		if resp.StringOr("t", "") != "ok" {
			t.Fatalf("resp = %s (late response cross-delivered?)", resp)
		}
	}
}

// TestMuxReconnectsAfterPeerRestart: a broken mux connection is dropped and
// the next call redials.
func TestMuxReconnectsAfterPeerRestart(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b.SetHandler(echoHandler)
	addr := b.Addr()
	if _, err := a.Call(context.Background(), addr, Message{Type: "x"}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	b.Close()
	// The next call may race the close teardown; it must fail unreachable,
	// not hang.
	if _, err := a.Call(context.Background(), addr, Message{Type: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to closed peer: %v, want ErrUnreachable", err)
	}
	// Restart a listener on the same address and verify the client recovers.
	c, err := ListenTCP(addr, TCPOptions{})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer c.Close()
	c.SetHandler(echoHandler)
	if _, err := a.Call(context.Background(), addr, Message{Type: "x"}); err != nil {
		t.Fatalf("call after peer restart: %v", err)
	}
}

// TestMuxManyConcurrent hammers one connection with pipelined calls and
// verifies every response reaches its own caller (bodies must match).
func TestMuxManyConcurrent(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		v, _ := msg.Body.Get("n")
		return bson.D{{Key: "n2", Value: v.(int64) * 2}}, nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := int64(w*1000 + i)
				resp, err := a.Call(context.Background(), b.Addr(), Message{
					Type: "double",
					Body: bson.D{{Key: "n", Value: n}},
				})
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if v, _ := resp.Get("n2"); v != n*2 {
					t.Errorf("resp for %d = %v (cross-delivered response)", n, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkTCPCallMux(b *testing.B) {
	srv, err := ListenTCP("127.0.0.1:0", TCPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(echoHandler)
	cli, err := ListenTCP("127.0.0.1:0", TCPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cli.Call(ctx, srv.Addr(), Message{Type: "ping"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
