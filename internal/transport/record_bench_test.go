package transport_test

import (
	"context"
	"testing"
	"time"

	"mystore/internal/bson"
	"mystore/internal/nwr"
	"mystore/internal/transport"
)

// BenchmarkTCPCallMuxRecord is BenchmarkTCPCallMux with a replica's answer:
// the handler renders a 4 KiB paper record through Record.ToDoc, deep enough
// to grow a handler goroutine's stack as a replica read does.
func BenchmarkTCPCallMuxRecord(b *testing.B) {
	srv, err := transport.ListenTCP("127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	rec := nwr.Record{Key: "user:42", Val: make([]byte, 4<<10), IsData: true, Ver: time.Now().UnixNano(), Origin: srv.Addr()}
	srv.SetHandler(func(ctx context.Context, msg transport.Message) (bson.D, error) {
		return rec.ToDoc(), nil
	})
	cli, err := transport.ListenTCP("127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cli.Call(ctx, srv.Addr(), transport.Message{Type: "nwr.get.replica"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
