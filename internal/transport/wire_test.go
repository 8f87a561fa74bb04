package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mystore/internal/bson"
)

// TestNonMuxConnectionIsClosedUnserved: a peer that does not open with the
// MUX1 preamble gets its connection closed without the handler running, and
// the listener keeps serving mux clients.
func TestNonMuxConnectionIsClosedUnserved(t *testing.T) {
	payload, err := bson.Marshal(bson.D{{Key: "type", Value: "ping"}, {Key: "from", Value: "old"}})
	if err != nil {
		t.Fatal(err)
	}
	legacy := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	legacy = append(legacy, payload...)

	cases := []struct {
		name   string
		send   []byte
		hangUp bool // the client closes first instead of waiting for the server
	}{
		{"legacy-framed request", legacy, false},
		{"four bytes of garbage", []byte{0xde, 0xad, 0xbe, 0xef}, false},
		{"MUX then hang up", []byte("MUX"), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := tcpPair(t)
			var invoked atomic.Int64
			srv.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
				invoked.Add(1)
				return echoHandler(ctx, msg)
			})

			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.send); err != nil {
				t.Fatal(err)
			}
			if tc.hangUp {
				conn.Close()
			} else {
				conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
				// The close may surface as EOF or, with the request unread
				// on the server, as a reset; a timeout means it never came.
				got, err := io.ReadAll(conn)
				var nerr net.Error
				if len(got) != 0 || (errors.As(err, &nerr) && nerr.Timeout()) {
					t.Fatalf("read %d bytes, err %v; want the server to close without answering", len(got), err)
				}
			}

			if _, err := cli.Call(context.Background(), srv.Addr(), Message{Type: "ping"}); err != nil {
				t.Fatalf("mux client after the bad connection: %v", err)
			}
			// Close waits for every serveConn goroutine, so returning proves
			// the bad connection's server side has ended.
			srv.Close()
			if n := invoked.Load(); n != 1 {
				t.Fatalf("handler ran %d times, want 1 (the mux call only)", n)
			}
		})
	}
}

// FuzzMuxServe feeds arbitrary bytes after a valid preamble to the server
// side of a connection: it must never panic, and the handler must run only
// for frames whose payload decodes.
func FuzzMuxServe(f *testing.F) {
	good, err := appendMuxFrame(nil, 1, poolTestDoc())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(append(append([]byte{}, good...), good...))
	f.Add(good[:len(good)-3])                                                 // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1})             // length over the frame limit
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 5, 0, 0, 0, 0})          // empty BSON document
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 3, 0xde, 0xad, 0xbe, 0xef}) // payload that is not BSON
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := &TCPTransport{
			opts:    TCPOptions{}.withDefaults(),
			serving: make(map[net.Conn]struct{}),
		}
		var invoked atomic.Int64
		srv.SetHandler(func(ctx context.Context, msg Message) (bson.D, error) {
			invoked.Add(1)
			return nil, nil
		})
		client, server := net.Pipe()
		srv.wg.Add(1)
		go srv.serveConn(server)
		// net.Pipe is unbuffered: responses must be drained or the server's
		// writers block.
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			io.Copy(io.Discard, client) //nolint:errcheck
		}()
		// A write error means the server stopped reading (oversized frame).
		client.Write(append([]byte(muxMagic), data...)) //nolint:errcheck
		client.Close()
		srv.wg.Wait()
		<-drained

		if got, max := invoked.Load(), decodableFrames(data); got > max {
			t.Fatalf("handler ran %d times for %d decodable frames", got, max)
		}
	})
}

// decodableFrames counts the complete mux frames at the front of data whose
// payload is a BSON document — an upper bound on handler invocations (a
// frame carrying an expired "dl" decodes but is dropped).
func decodableFrames(data []byte) int64 {
	var n int64
	for len(data) >= muxHeaderSize {
		size := binary.BigEndian.Uint32(data[:4])
		if size > maxFrame || uint64(len(data)-muxHeaderSize) < uint64(size) {
			break
		}
		if _, err := bson.Unmarshal(data[muxHeaderSize : muxHeaderSize+int(size)]); err == nil {
			n++
		}
		data = data[muxHeaderSize+int(size):]
	}
	return n
}
