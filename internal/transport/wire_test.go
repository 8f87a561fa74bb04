package transport

import (
	"bufio"
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
// side of a connection, in writes of a fuzzed size: it must never panic, and
// the handler must run only for frames whose payload decodes.
func FuzzMuxServe(f *testing.F) {
	good, err := appendMuxFrame(nil, 1, poolTestDoc())
	if err != nil {
		f.Fatal(err)
	}
	// chunk is the size of the writes the bytes arrive in (0: one write), so
	// frames also reach the server's buffered reader split at any byte.
	two := append(append([]byte{}, good...), good...)
	f.Add(good, uint8(0))
	f.Add(two, uint8(0))                                                                // two frames in one write
	f.Add(good[:len(good)-3], uint8(0))                                                 // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1}, uint8(0))             // length over the frame limit
	f.Add([]byte{0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 5, 0, 0, 0, 0}, uint8(0))          // empty BSON document
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 3, 0xde, 0xad, 0xbe, 0xef}, uint8(0)) // payload that is not BSON
	f.Add([]byte{}, uint8(0))
	f.Add(good, uint8(1))            // a frame a byte at a time
	f.Add(two, uint8(muxHeaderSize)) // each header apart from its payload

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
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
		for rest := append([]byte(muxMagic), data...); len(rest) > 0; {
			n := len(rest)
			if chunk > 0 && int(chunk) < n {
				n = int(chunk)
			}
			if _, err := client.Write(rest[:n]); err != nil {
				break
			}
			rest = rest[n:]
		}
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

// TestMuxFramesAcrossReadBoundaries: the server frames requests however
// their bytes arrive — two frames in one write, a frame a byte at a time, a
// header apart from its payload — and answers each under its request id.
func TestMuxFramesAcrossReadBoundaries(t *testing.T) {
	_, srv := tcpPair(t)
	srv.SetHandler(echoHandler)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := func(rid uint64, typ string) []byte {
		t.Helper()
		f, err := appendMuxFrame(nil, rid, bson.D{{Key: "type", Value: typ}, {Key: "from", Value: "raw"}})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	writes := [][]byte{[]byte(muxMagic), append(frame(1, "one"), frame(2, "two")...)}
	for _, b := range frame(3, "three") {
		writes = append(writes, []byte{b})
	}
	split := frame(4, "four")
	writes = append(writes, split[:muxHeaderSize], split[muxHeaderSize:])
	for _, w := range writes {
		if _, err := conn.Write(w); err != nil {
			t.Fatal(err)
		}
	}

	want := map[uint64]string{1: "one", 2: "two", 3: "three", 4: "four"}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(conn)
	for len(want) > 0 {
		payload, rid, err := readMuxFrame(br)
		if err != nil {
			t.Fatalf("reading responses, %d unanswered: %v", len(want), err)
		}
		resp, err := bson.Unmarshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := resp.Get("body")
		doc, _ := body.(bson.D)
		typ, ok := want[rid]
		if got := doc.StringOr("echo", ""); !ok || got != typ {
			t.Fatalf("response to id %d echoes %q, want %q", rid, got, typ)
		}
		delete(want, rid)
	}
}
