// Package trace implements MyStore's request tracing: a 64-bit trace id
// rides every RPC frame alongside the propagated deadline, each layer the
// request crosses (rest → dispatch → cluster client → transport → nwr
// coordinator → docstore → wal) opens a span recording start, duration and
// outcome, and completed traces land in a bounded ring buffer the gateway
// serves at /debug/traces. Traces whose end-to-end duration exceeds a
// configurable threshold are additionally emitted to the slow-op log, which
// is the tool for answering the question the paper's evaluation revolves
// around: where did a slow Put spend its time — gateway queue, cache,
// coordinator fan-out, RPC, or WAL fsync?
//
// Propagation is context-based. The gateway installs a Collector into each
// request context; Start reads it back and opens spans parented to the
// enclosing span. The in-memory transport passes the caller's context to the
// remote handler directly, so an in-process cluster yields one tree covering
// every node a request touched. The TCP transport carries the (trace id,
// parent span id) pair on the wire as the "tr"/"sp" frame fields and the
// server re-joins them to its own node-local collector, so cross-process
// spans correlate by id.
//
// When no collector is installed, Start returns a nil span whose methods are
// no-ops: tracing costs an idle hot path one context lookup.
package trace

import (
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ID is a 64-bit trace identifier. The zero ID means "no trace".
type ID uint64

type ctxKey struct{}

// ctxInfo is the tracing state carried by a context: the collector spans
// report to, the current trace id, and the enclosing span id (0 at the
// root).
type ctxInfo struct {
	c     *Collector
	trace ID
	span  uint64
}

// SpanRecord is one completed span.
type SpanRecord struct {
	TraceID  ID            `json:"-"`
	SpanID   uint64        `json:"span"`
	Parent   uint64        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Peer     string        `json:"peer,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durNs"`
	Err      string        `json:"err,omitempty"`
}

// Trace is one finished request: the root span's identity plus every span
// that completed before the root did.
type Trace struct {
	ID       ID            `json:"-"`
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durNs"`
	Slow     bool          `json:"slow,omitempty"`
	Spans    []SpanRecord  `json:"spans"`
}

// Span is an in-flight span. A nil *Span is valid and inert, which is what
// Start returns when the context carries no collector.
type Span struct {
	c      *Collector
	trace  ID
	id     uint64
	parent uint64
	name   string
	peer   string
	root   bool
	start  time.Time
}

// Config tunes a Collector.
type Config struct {
	// SlowThreshold sends any trace at least this long to the slow-op log.
	// Zero disables the log.
	SlowThreshold time.Duration
	// Now overrides the clock (deterministic tests). Nil means time.Now.
	Now func() time.Time

	// The bounds and the log sink. Only this package's tests change them.
	capacity  int                              // completed-trace ring buffer; default 256
	maxSpans  int                              // spans kept per trace, the rest counted dropped; default 512
	maxActive int                              // open traces; past it new roots go untracked; default 4096
	logf      func(format string, args ...any) // slow-op lines; default log.Printf
}

func (c Config) withDefaults() Config {
	if c.capacity <= 0 {
		c.capacity = 256
	}
	if c.maxSpans <= 0 {
		c.maxSpans = 512
	}
	if c.maxActive <= 0 {
		c.maxActive = 4096
	}
	if c.logf == nil {
		c.logf = log.Printf
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats counts collector activity.
type Stats struct {
	// Finished counts completed traces (root span ended).
	Finished int64
	// Slow counts finished traces that crossed SlowThreshold.
	Slow int64
	// DroppedSpans counts spans lost to the maxSpans cap or to ending after
	// their trace finalized (a quorum write's background replications).
	DroppedSpans int64
	// DroppedTraces counts root spans not tracked because maxActive open
	// traces already existed.
	DroppedTraces int64
}

type activeTrace struct {
	root  uint64
	start time.Time
	spans []SpanRecord
}

// Collector assembles spans into traces and retains the most recent
// capacity completed traces in a ring buffer. It is safe for concurrent use.
type Collector struct {
	cfg Config

	nextSpan atomic.Uint64
	nextTr   atomic.Uint64
	seed     uint64

	mu     sync.Mutex
	active map[ID]*activeTrace
	ring   []Trace
	next   int // ring write position
	filled bool

	// strays retains spans whose trace this collector does not own — spans
	// Join-ed from a remote root (TCP deployments, where each node has its
	// own collector) or background replications ending after their quorum
	// root finalized. Fixed-size ring, strayNext is the write position.
	strays    []SpanRecord
	strayNext int
	strayFull bool

	finished      atomic.Int64
	slow          atomic.Int64
	droppedSpans  atomic.Int64
	droppedTraces atomic.Int64
}

// NewCollector returns an empty collector.
func NewCollector(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	return &Collector{
		cfg:    cfg,
		seed:   uint64(cfg.Now().UnixNano()),
		active: make(map[ID]*activeTrace),
		ring:   make([]Trace, cfg.capacity),
		strays: make([]SpanRecord, cfg.capacity),
	}
}

// newTraceID derives a fresh id: the creation-time seed mixed with a
// process-unique sequence through a 64-bit finalizer, so concurrent
// collectors in one test binary do not collide.
func (c *Collector) newTraceID() ID {
	x := c.seed + c.nextTr.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	if x == 0 {
		x = 1
	}
	return ID(x)
}

// Stats returns a snapshot of the collector's counters.
func (c *Collector) Stats() Stats {
	return Stats{
		Finished:      c.finished.Load(),
		Slow:          c.slow.Load(),
		DroppedSpans:  c.droppedSpans.Load(),
		DroppedTraces: c.droppedTraces.Load(),
	}
}

// Traces returns up to n completed traces, most recent first (n <= 0 means
// all retained).
func (c *Collector) Traces(n int) []Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	size := c.next
	if c.filled {
		size = len(c.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := (c.next - 1 - i + len(c.ring)) % len(c.ring)
		out = append(out, c.ring[idx])
	}
	return out
}

// Strays returns the retained spans not attached to a locally owned trace,
// most recent first.
func (c *Collector) Strays() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	size := c.strayNext
	if c.strayFull {
		size = len(c.strays)
	}
	out := make([]SpanRecord, 0, size)
	for i := 0; i < size; i++ {
		idx := (c.strayNext - 1 - i + len(c.strays)) % len(c.strays)
		out = append(out, c.strays[idx])
	}
	return out
}

// TraceByID returns a retained trace by id.
func (c *Collector) TraceByID(id ID) (Trace, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	size := c.next
	if c.filled {
		size = len(c.ring)
	}
	for i := 0; i < size; i++ {
		idx := (c.next - 1 - i + len(c.ring)) % len(c.ring)
		if c.ring[idx].ID == id {
			return c.ring[idx], true
		}
	}
	return Trace{}, false
}

// record files one completed span under its trace; the root span finalizes
// the trace into the ring.
func (c *Collector) record(sp *Span, end time.Time, errMsg string) {
	rec := SpanRecord{
		TraceID:  sp.trace,
		SpanID:   sp.id,
		Parent:   sp.parent,
		Name:     sp.name,
		Peer:     sp.peer,
		Start:    sp.start,
		Duration: end.Sub(sp.start),
		Err:      errMsg,
	}
	c.mu.Lock()
	at, ok := c.active[sp.trace]
	if !ok {
		// Not a trace this collector owns: a Join-ed remote span, or a
		// background replication that outlived its root. Keep it findable.
		c.strays[c.strayNext] = rec
		c.strayNext++
		if c.strayNext == len(c.strays) {
			c.strayNext = 0
			c.strayFull = true
		}
		c.mu.Unlock()
		c.droppedSpans.Add(1)
		return
	}
	if len(at.spans) < c.cfg.maxSpans {
		at.spans = append(at.spans, rec)
	} else if !sp.root {
		c.mu.Unlock()
		c.droppedSpans.Add(1)
		return
	} else {
		// Over the cap, but the root must still finalize the trace; swap it
		// in for the last retained span so the tree keeps its anchor.
		at.spans[len(at.spans)-1] = rec
		c.droppedSpans.Add(1)
	}
	if !sp.root {
		c.mu.Unlock()
		return
	}
	delete(c.active, sp.trace)
	tr := Trace{
		ID:       sp.trace,
		Root:     sp.name,
		Start:    at.start,
		Duration: rec.Duration,
		Spans:    at.spans,
	}
	slow := c.cfg.SlowThreshold > 0 && tr.Duration >= c.cfg.SlowThreshold
	tr.Slow = slow
	c.ring[c.next] = tr
	c.next++
	if c.next == len(c.ring) {
		c.next = 0
		c.filled = true
	}
	c.mu.Unlock()
	c.finished.Add(1)
	if slow {
		c.slow.Add(1)
		c.cfg.logf("slow-op trace=%016x op=%s dur=%s %s",
			uint64(tr.ID), tr.Root, tr.Duration.Round(time.Microsecond), summarize(tr.Spans))
	}
}

// summarize renders the longest spans of a trace as "name(peer)=dur" pairs
// for the slow-op log, longest first, capped at eight.
func summarize(spans []SpanRecord) string {
	sorted := make([]SpanRecord, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Duration > sorted[j].Duration })
	if len(sorted) > 8 {
		sorted = sorted[:8]
	}
	out := make([]byte, 0, 128)
	out = append(out, "spans=["...)
	for i, s := range sorted {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, s.Name...)
		if s.Peer != "" {
			out = append(out, '(')
			out = append(out, s.Peer...)
			out = append(out, ')')
		}
		out = append(out, '=')
		out = append(out, s.Duration.Round(time.Microsecond).String()...)
	}
	out = append(out, ']')
	return string(out)
}

// open registers a new span. A zero trace id starts a new trace with this
// span as root.
func (c *Collector) open(trace ID, parent uint64, name string) *Span {
	now := c.cfg.Now()
	sp := &Span{c: c, parent: parent, name: name, start: now}
	if trace == 0 {
		sp.trace = c.newTraceID()
		sp.root = true
		sp.id = c.nextSpan.Add(1)
		c.mu.Lock()
		if len(c.active) >= c.cfg.maxActive {
			c.mu.Unlock()
			c.droppedTraces.Add(1)
			return nil
		}
		c.active[sp.trace] = &activeTrace{root: sp.id, start: now}
		c.mu.Unlock()
		return sp
	}
	sp.trace = trace
	sp.id = c.nextSpan.Add(1)
	return sp
}

// End completes the span with the call's outcome. Safe on a nil span.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	s.c.record(s, s.c.cfg.Now(), msg)
}

// SetPeer annotates the span with the remote address it talked to. Safe on a
// nil span.
func (s *Span) SetPeer(peer string) {
	if s != nil {
		s.peer = peer
	}
}
