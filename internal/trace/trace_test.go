package trace

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock hands out strictly increasing instants so span durations are
// deterministic.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(time.Millisecond)
	return f.now
}

func TestSpanTreeAssembly(t *testing.T) {
	c := NewCollector(Config{Now: newFakeClock().Now})
	ctx := WithCollector(context.Background(), c)

	rctx, root := Start(ctx, "rest.put")
	cctx, child := Start(rctx, "nwr.write")
	_, leaf := Start(cctx, "wal.commit")
	leaf.End(nil)
	child.End(nil)
	root.End(nil)

	traces := c.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(traces))
	}
	tr := traces[0]
	if tr.Root != "rest.put" {
		t.Fatalf("root = %q", tr.Root)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(tr.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range tr.Spans {
		if s.TraceID != tr.ID {
			t.Fatalf("span %s trace id %x != trace %x", s.Name, s.TraceID, tr.ID)
		}
		byName[s.Name] = s
	}
	if byName["rest.put"].Parent != 0 {
		t.Fatalf("root parent = %d", byName["rest.put"].Parent)
	}
	if byName["nwr.write"].Parent != byName["rest.put"].SpanID {
		t.Fatal("nwr.write not parented to rest.put")
	}
	if byName["wal.commit"].Parent != byName["nwr.write"].SpanID {
		t.Fatal("wal.commit not parented to nwr.write")
	}
	if got, ok := c.TraceByID(tr.ID); !ok || got.Root != "rest.put" {
		t.Fatalf("TraceByID(%x) = %v, %v", tr.ID, got.Root, ok)
	}
}

func TestNilSpanAndNoCollector(t *testing.T) {
	ctx, sp := Start(context.Background(), "anything")
	if sp != nil {
		t.Fatal("expected nil span without a collector")
	}
	// All methods are no-ops on nil.
	sp.SetPeer("x")
	sp.End(errors.New("ignored"))
	if id := sp.traceID(); id != 0 {
		t.Fatalf("nil span trace id = %x", id)
	}
	if _, _, ok := Wire(ctx); ok {
		t.Fatal("Wire reported a live trace on a bare context")
	}
	if fromContext(ctx) != nil {
		t.Fatal("FromContext on bare context")
	}
}

func TestErrorOutcomeRecorded(t *testing.T) {
	c := NewCollector(Config{Now: newFakeClock().Now})
	ctx := WithCollector(context.Background(), c)
	_, root := Start(ctx, "rest.get")
	root.End(errors.New("quorum failed"))
	tr := c.Traces(1)[0]
	if tr.Spans[0].Err != "quorum failed" {
		t.Fatalf("err = %q", tr.Spans[0].Err)
	}
}

func TestRingEviction(t *testing.T) {
	c := NewCollector(Config{capacity: 4, Now: newFakeClock().Now})
	ctx := WithCollector(context.Background(), c)
	for i := 0; i < 10; i++ {
		_, sp := Start(ctx, fmt.Sprintf("op%d", i))
		sp.End(nil)
	}
	traces := c.Traces(0)
	if len(traces) != 4 {
		t.Fatalf("ring retained %d traces, want 4", len(traces))
	}
	// Most recent first.
	for i, want := range []string{"op9", "op8", "op7", "op6"} {
		if traces[i].Root != want {
			t.Fatalf("traces[%d] = %s, want %s", i, traces[i].Root, want)
		}
	}
	if n := len(c.Traces(2)); n != 2 {
		t.Fatalf("Traces(2) returned %d", n)
	}
	if got := c.Stats().Finished; got != 10 {
		t.Fatalf("finished = %d", got)
	}
}

func TestSlowOpLog(t *testing.T) {
	clock := newFakeClock()
	var lines []string
	c := NewCollector(Config{
		SlowThreshold: 2 * time.Millisecond,
		Now:           clock.Now,
		logf:          func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	})
	ctx := WithCollector(context.Background(), c)

	// Fast: start+end consume 2 ticks = 1ms duration, under threshold.
	_, fast := Start(ctx, "fast.op")
	fast.End(nil)

	// Slow: the child span's two ticks stretch the root past the threshold.
	rctx, slow := Start(ctx, "slow.op")
	_, child := Start(rctx, "wal.commit")
	child.SetPeer("n1")
	child.End(nil)
	slow.End(nil)

	if len(lines) != 1 {
		t.Fatalf("slow-op lines = %d (%v)", len(lines), lines)
	}
	if !strings.Contains(lines[0], "slow.op") || !strings.Contains(lines[0], "wal.commit(n1)") {
		t.Fatalf("slow-op line missing fields: %s", lines[0])
	}
	if got := c.Stats().Slow; got != 1 {
		t.Fatalf("slow count = %d", got)
	}
	if !c.Traces(1)[0].Slow {
		t.Fatal("trace not marked slow")
	}
}

func TestLateSpanBecomesStray(t *testing.T) {
	c := NewCollector(Config{Now: newFakeClock().Now})
	ctx := WithCollector(context.Background(), c)
	rctx, root := Start(ctx, "rest.put")
	_, late := Start(rctx, "nwr.replica")
	late.SetPeer("n3")
	root.End(nil) // quorum returned; replica still in flight
	late.End(nil)

	if got := c.Stats().DroppedSpans; got != 1 {
		t.Fatalf("dropped spans = %d", got)
	}
	strays := c.Strays()
	if len(strays) != 1 || strays[0].Name != "nwr.replica" || strays[0].Peer != "n3" {
		t.Fatalf("strays = %+v", strays)
	}
	// The finished trace holds only the root.
	if n := len(c.Traces(1)[0].Spans); n != 1 {
		t.Fatalf("trace span count = %d", n)
	}
}

func TestMaxSpansCap(t *testing.T) {
	c := NewCollector(Config{maxSpans: 3, Now: newFakeClock().Now})
	ctx := WithCollector(context.Background(), c)
	rctx, root := Start(ctx, "root")
	for i := 0; i < 5; i++ {
		_, sp := Start(rctx, "child")
		sp.End(nil)
	}
	root.End(nil)
	tr := c.Traces(1)[0]
	if len(tr.Spans) != 3 {
		t.Fatalf("span count = %d, want 3 (capped)", len(tr.Spans))
	}
	// 2 capped children + the root itself (cap hit before it filed).
	if got := c.Stats().DroppedSpans; got != 3 {
		t.Fatalf("dropped = %d", got)
	}
}

func TestJoinAndWire(t *testing.T) {
	gatewayC := NewCollector(Config{Now: newFakeClock().Now})
	nodeC := NewCollector(Config{Now: newFakeClock().Now})

	ctx := WithCollector(context.Background(), gatewayC)
	rctx, root := Start(ctx, "rest.put")
	id, parent, ok := Wire(rctx)
	if !ok || id == 0 || parent == 0 {
		t.Fatalf("Wire = %x, %d, %v", id, parent, ok)
	}

	// Remote node re-joins the ids against its own collector.
	remoteCtx := Join(context.Background(), nodeC, id, parent)
	_, remote := Start(remoteCtx, "docstore.apply")
	if remote.traceID() != id {
		t.Fatalf("remote trace id %x != %x", remote.traceID(), id)
	}
	remote.End(nil)
	root.End(nil)

	// The remote span lands in the node collector's stray ring, correlated
	// by trace id.
	strays := nodeC.Strays()
	if len(strays) != 1 || strays[0].TraceID != id || strays[0].Parent != parent {
		t.Fatalf("node strays = %+v", strays)
	}
	if len(gatewayC.Traces(0)) != 1 {
		t.Fatal("gateway trace missing")
	}

	// Join with a nil collector or zero id is inert.
	if got := Join(context.Background(), nil, id, parent); fromContext(got) != nil {
		t.Fatal("Join(nil collector) installed state")
	}
	if _, _, ok := Wire(Join(context.Background(), nodeC, 0, 9)); ok {
		t.Fatal("Join(zero id) produced a live trace")
	}
}

func TestMaxActiveBound(t *testing.T) {
	c := NewCollector(Config{maxActive: 2, Now: newFakeClock().Now})
	ctx := WithCollector(context.Background(), c)
	_, s1 := Start(ctx, "a")
	_, s2 := Start(ctx, "b")
	_, s3 := Start(ctx, "c") // over the bound
	if s1 == nil || s2 == nil {
		t.Fatal("first two roots should be tracked")
	}
	if s3 != nil {
		t.Fatal("third root should be dropped")
	}
	if got := c.Stats().DroppedTraces; got != 1 {
		t.Fatalf("dropped traces = %d", got)
	}
	s1.End(nil)
	s2.End(nil)
	// Capacity freed: new roots track again.
	if _, s4 := Start(ctx, "d"); s4 == nil {
		t.Fatal("root after drain should be tracked")
	}
}

// TestConcurrentTraces hammers one collector from many goroutines; run under
// -race via verify.sh.
func TestConcurrentTraces(t *testing.T) {
	c := NewCollector(Config{capacity: 64})
	ctx := WithCollector(context.Background(), c)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rctx, root := Start(ctx, "op")
				_, child := Start(rctx, "child")
				child.End(nil)
				root.End(nil)
			}
		}()
	}
	wg.Wait()
	if got := c.Stats().Finished; got != 16*50 {
		t.Fatalf("finished = %d, want %d", got, 16*50)
	}
	for _, tr := range c.Traces(0) {
		if len(tr.Spans) != 2 {
			t.Fatalf("trace %x has %d spans", tr.ID, len(tr.Spans))
		}
	}
}

// fromContext returns the collector carried by ctx, or nil.
func fromContext(ctx context.Context) *Collector {
	info, _ := ctx.Value(ctxKey{}).(ctxInfo)
	return info.c
}

// traceID returns the span's trace id (0 on a nil span).
func (s *Span) traceID() ID {
	if s == nil {
		return 0
	}
	return s.trace
}
