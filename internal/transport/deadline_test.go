package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mystore/internal/bson"
)

// TestDeadlineRidesTheWire checks that a client deadline is visible to the
// server-side handler's context.
func TestDeadlineRidesTheWire(t *testing.T) {
	// The subtest name is the wire format's; the mem transport's propagation
	// has its own test below.
	t.Run("mux", func(t *testing.T) {
		cli, srv := tcpPair(t)
		var sawDeadline atomic.Int64
		srv.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
			if dl, ok := ctx.Deadline(); ok {
				sawDeadline.Store(dl.UnixNano())
			}
			return bson.D{{Key: "ok", Value: true}}, nil
		})

		want := time.Now().Add(3 * time.Second)
		ctx, cancel := context.WithDeadline(context.Background(), want)
		defer cancel()
		if _, err := cli.Call(ctx, srv.Addr(), Message{Type: "t"}); err != nil {
			t.Fatalf("call: %v", err)
		}
		got := time.Unix(0, sawDeadline.Load())
		if got.IsZero() || got.Sub(want) > time.Millisecond || want.Sub(got) > time.Millisecond {
			t.Fatalf("handler deadline = %v, want %v", got, want)
		}
	})
}

// handleRequest is serveRequest's response alone.
func (t *TCPTransport) handleRequest(payload []byte) bson.D {
	resp, _ := t.serveRequest(payload)
	return resp
}

// TestExpiredDeadlineDroppedServerSide exercises the server-side shed: a
// request arriving with its "dl" already in the past is answered with an
// error without invoking the handler.
func TestExpiredDeadlineDroppedServerSide(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var invoked atomic.Int64
	srv.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		invoked.Add(1)
		return nil, nil
	})

	// Drive handleRequest directly with a stale deadline; going through a
	// live socket would race the client's own deadline check.
	payload, err := bson.Marshal(bson.D{
		{Key: "type", Value: "t"},
		{Key: "from", Value: "tester"},
		{Key: "dl", Value: time.Now().Add(-time.Second).UnixNano()},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := srv.handleRequest(payload)
	emsg, ok := resp.Get("err")
	if !ok || !strings.Contains(emsg.(string), deadlineExpiredMsg) {
		t.Fatalf("response = %v, want deadline-expired error", resp)
	}
	if invoked.Load() != 0 {
		t.Fatal("handler must not run for an expired request")
	}
	if srv.DeadlineDropped() != 1 {
		t.Fatalf("DeadlineDropped = %d, want 1", srv.DeadlineDropped())
	}
}

// TestMemExpiredDeadlineDropped checks the simulated transport applies the
// same policy: an expired caller context never reaches the handler.
func TestMemExpiredDeadlineDropped(t *testing.T) {
	net := NewMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var invoked atomic.Int64
	b.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		invoked.Add(1)
		return nil, nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the caller has already given up
	_, err = a.Call(ctx, "b", Message{Type: "t"})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if invoked.Load() != 0 {
		t.Fatal("handler must not run for an expired request")
	}
	if b.DeadlineDropped() != 1 {
		t.Fatalf("DeadlineDropped = %d, want 1", b.DeadlineDropped())
	}

	// A live context still goes through.
	if _, err := a.Call(context.Background(), "b", Message{Type: "t"}); err != nil {
		t.Fatalf("live call: %v", err)
	}
	if invoked.Load() != 1 {
		t.Fatalf("handler invocations = %d, want 1", invoked.Load())
	}
}

// TestStalledReaderLosesItsConnection: a peer that stops reading its
// responses cannot park the server. The response write gives up at the
// request's deadline and closes that peer's connection, and another peer's
// calls are answered throughout.
func TestStalledReaderLosesItsConnection(t *testing.T) {
	cli, srv := tcpPair(t)
	big := make([]byte, 1<<20)
	srv.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
		if msg.Type == "big" {
			return bson.D{{Key: "v", Value: big}}, nil
		}
		return echoHandler(ctx, msg)
	})
	ping := func() {
		t.Helper()
		if _, err := cli.Call(context.Background(), srv.Addr(), Message{Type: "ping"}); err != nil {
			t.Fatalf("call from the reading peer: %v", err)
		}
	}
	serving := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.serving)
	}
	ping() // the reading peer's connection is served first

	// Sixteen 1 MiB responses overfill both sockets' buffers unless read.
	const reqs = 16
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dl := time.Now().Add(300 * time.Millisecond)
	frames := []byte(muxMagic)
	for rid := uint64(1); rid <= reqs; rid++ {
		req := bson.D{{Key: "type", Value: "big"}, {Key: "from", Value: "stalled"}, {Key: "dl", Value: dl.UnixNano()}}
		if frames, err = appendMuxFrame(frames, rid, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the stalled peer is served", func() bool { return serving() == 2 })
	for serving() == 2 {
		if time.Now().After(dl.Add(2 * time.Second)) {
			t.Fatalf("the stalled peer's connection is still open %v after its deadline", time.Since(dl))
		}
		ping()
	}
	ping()

	// Reading now finds the end of the stream after what the buffers held.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	n, err := io.Copy(io.Discard, conn)
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		t.Fatalf("read %d bytes and then waited: the server kept the connection open", n)
	}
	if n >= reqs<<20 {
		t.Fatalf("read %d bytes: every response was written after its deadline", n)
	}
}
