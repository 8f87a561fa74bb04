package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mystore/internal/bson"
)

func echoHandler(ctx context.Context, msg Message) (bson.D, error) {
	return bson.D{
		{Key: "echo", Value: msg.Type},
		{Key: "from", Value: msg.From},
	}, nil
}

func TestMemCallRoundTrip(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("node-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("node-b")
	if err != nil {
		t.Fatal(err)
	}
	b.SetHandler(echoHandler)
	resp, err := a.Call(context.Background(), "node-b", Message{Type: "ping"})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.StringOr("echo", "") != "ping" || resp.StringOr("from", "") != "node-a" {
		t.Fatalf("resp = %s", resp)
	}
}

func TestMemDuplicateAddress(t *testing.T) {
	net := NewMemNetwork()
	if _, err := net.Endpoint("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("x"); err == nil {
		t.Fatal("duplicate address accepted")
	}
}

func TestMemUnknownDestination(t *testing.T) {
	net := NewMemNetwork()
	a, _ := net.Endpoint("a")
	_, err := a.Call(context.Background(), "ghost", Message{Type: "ping"})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestMemNoHandler(t *testing.T) {
	net := NewMemNetwork()
	a, _ := net.Endpoint("a")
	net.Endpoint("b") //nolint:errcheck
	_, err := a.Call(context.Background(), "b", Message{Type: "ping"})
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestMemRemoteError(t *testing.T) {
	net := NewMemNetwork()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	b.SetHandler(func(context.Context, Message) (bson.D, error) {
		return nil, errors.New("handler exploded")
	})
	_, err := a.Call(context.Background(), "b", Message{Type: "x"})
	if !IsRemote(err) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if errors.Is(err, ErrUnreachable) {
		t.Fatal("remote error misclassified as unreachable")
	}
}

func TestMemPartitionAndHeal(t *testing.T) {
	net := NewMemNetwork()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	b.SetHandler(echoHandler)
	a.SetHandler(echoHandler)
	net.Partition("a", "b")
	if _, err := a.Call(context.Background(), "b", Message{Type: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned call err = %v", err)
	}
	if _, err := b.Call(context.Background(), "a", Message{Type: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partition must be bidirectional; err = %v", err)
	}
	net.Heal("a", "b")
	if _, err := a.Call(context.Background(), "b", Message{Type: "x"}); err != nil {
		t.Fatalf("healed call err = %v", err)
	}
}

func TestMemCloseAndReopen(t *testing.T) {
	net := NewMemNetwork()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	b.SetHandler(echoHandler)
	b.Close()
	if !b.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if _, err := a.Call(context.Background(), "b", Message{Type: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to closed endpoint err = %v", err)
	}
	// The closed endpoint cannot originate calls either.
	if _, err := b.Call(context.Background(), "a", Message{Type: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call from closed endpoint err = %v", err)
	}
	b.Reopen()
	if _, err := a.Call(context.Background(), "b", Message{Type: "x"}); err != nil {
		t.Fatalf("call after Reopen err = %v", err)
	}
}

func TestMemFaultHook(t *testing.T) {
	net := NewMemNetwork()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	b.SetHandler(echoHandler)
	var calls []string
	net.SetFault(func(from, to, msgType string) error {
		calls = append(calls, fmt.Sprintf("%s->%s:%s", from, to, msgType))
		if msgType == "doomed" {
			return errors.New("injected")
		}
		return nil
	})
	if _, err := a.Call(context.Background(), "b", Message{Type: "fine"}); err != nil {
		t.Fatalf("unfaulted call: %v", err)
	}
	if _, err := a.Call(context.Background(), "b", Message{Type: "doomed"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("faulted call err = %v", err)
	}
	if len(calls) != 2 || calls[0] != "a->b:fine" {
		t.Fatalf("fault hook calls = %v", calls)
	}
	net.SetFault(nil)
	if _, err := a.Call(context.Background(), "b", Message{Type: "doomed"}); err != nil {
		t.Fatalf("after clearing fault: %v", err)
	}
}

func TestMemLatencyAppliedAndCancellable(t *testing.T) {
	net := NewMemNetwork()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	b.SetHandler(echoHandler)
	net.SetLatencyModel(ConstantLatency(30 * time.Millisecond))
	start := time.Now()
	if _, err := a.Call(context.Background(), "b", Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 55*time.Millisecond {
		t.Fatalf("round trip = %v, want >= 2x30ms", rtt)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, "b", Message{Type: "x"}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("timed-out call err = %v", err)
	}
}

func TestLANLatencyScalesWithSize(t *testing.T) {
	model := LANLatency(time.Millisecond, 1e6) // 1 MB/s
	small := model("a", "b", 1000)
	big := model("a", "b", 100000)
	if big <= small {
		t.Fatalf("latency(100KB)=%v should exceed latency(1KB)=%v", big, small)
	}
	if zero := LANLatency(time.Millisecond, 0)("a", "b", 5000); zero != time.Millisecond {
		t.Fatalf("zero-bandwidth model = %v, want base only", zero)
	}
}

func TestMemConcurrentCalls(t *testing.T) {
	net := NewMemNetwork()
	server, _ := net.Endpoint("server")
	var count int
	var mu sync.Mutex
	server.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		mu.Lock()
		count++
		mu.Unlock()
		return bson.D{{Key: "n", Value: int64(1)}}, nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ep, err := net.Endpoint(fmt.Sprintf("client-%d", w))
			if err != nil {
				t.Errorf("endpoint: %v", err)
				return
			}
			for i := 0; i < 100; i++ {
				if _, err := ep.Call(context.Background(), "server", Message{Type: "inc"}); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if count != 800 {
		t.Fatalf("handled %d calls, want 800", count)
	}
}

// --- TCP transport ---

func tcpPair(t *testing.T) (*TCPTransport, *TCPTransport) {
	t.Helper()
	a, err := ListenTCP("127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenTCP("127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		v, _ := msg.Body.Get("n")
		return bson.D{{Key: "n2", Value: v.(int64) * 2}}, nil
	})
	resp, err := a.Call(context.Background(), b.Addr(), Message{
		Type: "double",
		Body: bson.D{{Key: "n", Value: int64(21)}},
	})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if v, _ := resp.Get("n2"); v != int64(42) {
		t.Fatalf("resp = %s", resp)
	}
}

func TestTCPRemoteError(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(func(context.Context, Message) (bson.D, error) {
		return nil, errors.New("kaboom")
	})
	_, err := a.Call(context.Background(), b.Addr(), Message{Type: "x"})
	if !IsRemote(err) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestTCPNoHandler(t *testing.T) {
	a, b := tcpPair(t)
	_, err := a.Call(context.Background(), b.Addr(), Message{Type: "x"})
	if !IsRemote(err) {
		t.Fatalf("err = %v, want remote no-handler error", err)
	}
}

func TestTCPUnreachable(t *testing.T) {
	a, _ := tcpPair(t)
	_, err := a.Call(context.Background(), "127.0.0.1:1", Message{Type: "x"})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestTCPSequentialCallsShareOneConnection(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(echoHandler)
	for i := 0; i < 50; i++ {
		if _, err := a.Call(context.Background(), b.Addr(), Message{Type: "seq"}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	b.mu.Lock()
	conns := len(b.serving)
	b.mu.Unlock()
	if conns != 1 {
		t.Fatalf("server holds %d connections after 50 sequential calls, want 1", conns)
	}
}

func TestTCPConcurrent(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(echoHandler)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := a.Call(context.Background(), b.Addr(), Message{Type: "c"}); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTCPClosedTransport(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(echoHandler)
	a.Close()
	if _, err := a.Call(context.Background(), b.Addr(), Message{Type: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Calls to a closed server fail as unreachable.
	b.Close()
	c, err := ListenTCP("127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), b.Addr(), Message{Type: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to closed server err = %v", err)
	}
}

func TestTCPCallTimeout(t *testing.T) {
	a, b := tcpPair(t)
	b.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		time.Sleep(200 * time.Millisecond)
		return bson.D{}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := a.Call(ctx, b.Addr(), Message{Type: "slow"})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func BenchmarkMemCall(b *testing.B) {
	net := NewMemNetwork()
	client, _ := net.Endpoint("c")
	server, _ := net.Endpoint("s")
	server.SetHandler(echoHandler)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(ctx, "s", Message{Type: "ping"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCall(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call(ctx, srv.Addr(), Message{Type: "ping"}); err != nil {
			b.Fatal(err)
		}
	}
}
