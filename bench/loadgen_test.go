package main

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once for 200 ms makes every request due during the
// stall late. The open-loop driver charges each of them from its due time,
// so the stall fills the tail; a closed-loop driver sends nothing while it
// waits, records the stall twice, and hides it from p99.
func TestOpenLoopShowsTheStallAClosedLoopHides(t *testing.T) {
	var served atomic.Int64
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if served.Add(1) == 100 {
			time.Sleep(200 * time.Millisecond)
		}
	}))
	defer srv.Close()
	conns := []*http.Client{newConn(), newConn()}
	do := func(c int, _ op, _ *rand.Rand) bool {
		resp, err := conns[c].Get(srv.URL)
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // empty body
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	gen := func(*rand.Rand) op { return op{kind: opGet} }

	open := driveOpen(len(conns), 1, time.Second, 500, gen, do)
	served.Store(0)
	closed := driveClosed(len(conns), 1, time.Second, gen, do)

	openP99 := quantile(latencies(open.samples, opGet, lat), 0.99)
	closedP99 := quantile(latencies(closed.samples, opGet, lat), 0.99)
	if openP99 < 100 {
		t.Errorf("open loop p99 = %.1f ms; the 200 ms stall should fill the tail", openP99)
	}
	if closedP99 >= 100 {
		t.Errorf("closed loop p99 = %.1f ms over %d samples; expected the stall to hide", closedP99, len(closed.samples))
	}
	lag := quantile(latencies(open.samples, opGet, func(s sample) time.Duration { return s.lag }), 0.99)
	if lag < 50 {
		t.Errorf("open loop p99 scheduling lag = %.1f ms; requests queued behind the stall were sent late", lag)
	}
}

// Arrivals the window closes on before a connection is free are the
// backlog, and count as attempted and failed.
func TestOpenLoopCountsWhatItCouldNotSend(t *testing.T) {
	slow := func(int, op, *rand.Rand) bool { time.Sleep(150 * time.Millisecond); return true }
	d := driveOpen(2, 1, 300*time.Millisecond, 200, func(*rand.Rand) op { return op{kind: opGet} }, slow)
	if len(d.samples) > 20 || d.backlog < 20 {
		t.Fatalf("%d sent, backlog %d; 2 connections at 150 ms a request cannot send 60 arrivals in 300 ms + the drain", len(d.samples), d.backlog)
	}
	if s := summarize(d); s.attempted != len(d.samples)+d.backlog || s.failed != d.backlog {
		t.Fatalf("attempted %d failed %d; want the backlog counted in both", s.attempted, s.failed)
	}
}

func TestValueRoundTripAndCorruption(t *testing.T) {
	buf := make([]byte, 4096)
	encodeValue(buf, "k0000002a-00017", 9)
	key, seq, err := decodeValue(buf)
	if err != nil || key != "k0000002a-00017" || seq != 9 {
		t.Fatalf("decode = %q, %d, %v", key, seq, err)
	}
	buf[2000] ^= 1
	if _, _, err := decodeValue(buf); err == nil {
		t.Fatal("a flipped bit passed the CRC")
	}
}
