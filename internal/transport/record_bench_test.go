package transport_test

import (
	"context"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/nwr"
	"mystore/internal/transport"
)

// BenchmarkTCPCallMuxRecord is BenchmarkTCPCallMux carrying a 4 KiB paper
// record rendered through Record.ToDoc, deep enough to grow a handler
// goroutine's stack as a replica call does. Three arms:
//   - get: the record is the answer, as for a replica's full read;
//   - put: the record is the request and the answer is small, as for a
//     replica write;
//   - digest: the answer is the record without its value, as for a read
//     repair probe — against get, the bytes and allocations a probe saves.
func BenchmarkTCPCallMuxRecord(b *testing.B) {
	srv, err := transport.ListenTCP("127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	rec := nwr.Record{Key: "user:42", Val: make([]byte, 4<<10), IsData: true, Ver: time.Now().UnixNano(), Origin: srv.Addr()}
	digest := rec
	digest.Val = nil
	srv.SetHandler(func(ctx context.Context, msg transport.Message) (bson.D, error) {
		switch msg.Type {
		case nwr.MsgPutReplica:
			return bson.D{{Key: "applied", Value: int64(1)}}, nil
		case "digest":
			return digest.ToDoc(), nil
		}
		return rec.ToDoc(), nil
	})
	cli, err := transport.ListenTCP("127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	for _, arm := range []struct {
		name string
		msg  func() transport.Message
	}{
		{"get", func() transport.Message { return transport.Message{Type: nwr.MsgGetReplica} }},
		{"put", func() transport.Message { return transport.Message{Type: nwr.MsgPutReplica, Body: rec.ToDoc()} }},
		{"digest", func() transport.Message { return transport.Message{Type: "digest"} }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := cli.Call(ctx, srv.Addr(), arm.msg()); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
