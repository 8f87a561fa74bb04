package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is one pass of one workload.
type runConfig struct {
	w      workload
	sz     sizes
	seed   int64
	window time.Duration
	traced bool
	outDir string // clusters' data dirs and the span dumps live here
}

// result is what a pass reports.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	metrics   []metric
	// violations name every check a response failed; any makes the run
	// incorrect.
	violations []string
}

func (r result) correct() bool { return len(r.violations) == 0 }

// conn is one load-generator connection and what its goroutine alone
// touches.
type conn struct {
	hc     *http.Client
	val    []byte       // the value being sent
	body   bytes.Buffer // the response being read
	minted []string     // never-seen keys the gateway acked
}

// runner drives one stack with one workload and checks every response.
type runner struct {
	cfg   runConfig
	st    *stack
	ks    *keyspace
	conns []*conn
	// A request's URL is urlPrefix + key + urlSuffix.
	urlPrefix, urlSuffix string

	mu          sync.Mutex
	violations  []string
	staleStrong atomic.Int64

	preloading     bool // preload retries until accepted; its refusals are not news
	failuresLogged atomic.Int64
}

func newRunner(cfg runConfig, st *stack, ks *keyspace) *runner {
	r := &runner{cfg: cfg, st: st, ks: ks, urlPrefix: st.srv.URL + "/data/"}
	if cfg.w.strong {
		r.urlSuffix = "?consistency=strong"
	}
	for c := 0; c < loadConns; c++ {
		r.conns = append(r.conns, &conn{hc: newConn(), val: make([]byte, cfg.sz.valueBytes)})
	}
	return r
}

func (r *runner) closeConns() {
	for _, c := range r.conns {
		c.hc.CloseIdleConnections()
	}
}

func (r *runner) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "VIOLATION:", msg)
	r.mu.Lock()
	r.violations = append(r.violations, msg)
	r.mu.Unlock()
}

// roundTrip sends one request on c and reads the whole response into c.body.
// While tracing it is the rest.request span.
func (r *runner) roundTrip(c *conn, kind opKind, key string, body []byte) bool {
	if rec := r.st.rec; rec != nil && rec.on.Load() {
		_, s := rec.begin(context.Background(), spanRequest)
		s.Msg, s.Strong = kind.String(), r.cfg.w.strong
		defer rec.finish(s)
	}
	method, rd := http.MethodGet, io.Reader(nil)
	if kind == opPut {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, r.urlPrefix+key+r.urlSuffix, rd)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.logFailure("%s %s: %v", method, key, err)
		return false
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		r.logFailure("%s %s: status %d: %.200s (%v)", method, key, resp.StatusCode, c.body.Bytes(), err)
		return false
	}
	return true
}

// logFailure says on stderr why a request failed, for the first few.
func (r *runner) logFailure(format string, args ...any) {
	if !r.preloading && r.failuresLogged.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// do performs one generated op and checks what came back.
func (r *runner) do(ci int, o op, rng *rand.Rand) bool {
	c := r.conns[ci]
	if o.kind == opPut {
		if o.key < 0 {
			name := r.ks.mint()
			encodeValue(c.val, name, 1)
			ok := r.roundTrip(c, opPut, name, c.val)
			if ok {
				c.minted = append(c.minted, name)
			}
			return ok
		}
		k := r.ks.lockForWrite(o.key, rng)
		defer k.busy.Store(false)
		seq := k.next.Add(1)
		encodeValue(c.val, k.name, seq)
		ok := r.roundTrip(c, opPut, k.name, c.val)
		if ok {
			k.acked.Store(seq)
		}
		return ok
	}
	k := &r.ks.keys[o.key]
	floor := k.acked.Load() // a strong read sent now must see at least this
	if !r.roundTrip(c, opGet, k.name, nil) {
		return false
	}
	key, seq, err := decodeValue(c.body.Bytes())
	switch {
	case err != nil:
		r.violate("GET %s: %v", k.name, err)
	case key != k.name:
		r.violate("GET %s: body belongs to %q", k.name, key)
	case seq == 0 || seq > k.next.Load():
		r.violate("GET %s: sequence %d was never written", k.name, seq)
	case r.cfg.w.strong && seq < floor:
		r.staleStrong.Add(1)
		r.violate("stale strong read: GET %s returned sequence %d after %d was acked", k.name, seq, floor)
	default:
		return true
	}
	return false
}

// preload writes every preloaded key once through the gateway. Writes are
// retried until they succeed: on the strong tier the first ones wait for
// the ranges' leader elections.
func (r *runner) preload() error {
	r.preloading = true
	defer func() { r.preloading = false }()
	deadline := time.Now().Add(60 * time.Second)
	errs := make([]error, loadConns)
	var wg sync.WaitGroup
	for c := 0; c < loadConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := c; i < len(r.ks.keys); i += loadConns {
				for !r.do(c, op{kind: opPut, key: i}, rng) {
					if time.Now().After(deadline) {
						errs[c] = fmt.Errorf("preload: key %s not accepted", r.ks.keys[i].name)
						return
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drive loads the stack for d with the workload's loop over clients
// connections.
func (r *runner) drive(clients int, seed int64, d time.Duration) driveResult {
	gen := func(rng *rand.Rand) op { return r.cfg.w.next(rng, len(r.ks.keys), r.cfg.sz.hotKeys) }
	if r.cfg.w.openRate > 0 {
		return driveOpen(clients, seed, d, r.cfg.w.openRate, gen, r.do)
	}
	return driveClosed(clients, seed, d, gen, r.do)
}

// readBack is the end-of-run gate on write workloads: once hints and the
// repair backlog read zero, every acked key is read through the cluster
// client (past the gateway cache) and must carry its last acked sequence or
// a newer one. It returns how many do not.
func (r *runner) readBack() int {
	for deadline := time.Now().Add(5 * time.Second); !r.st.quiesced() && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	type want struct {
		name string
		seq  uint64
	}
	var wants []want
	for i := range r.ks.keys {
		if seq := r.ks.keys[i].acked.Load(); seq > 0 {
			wants = append(wants, want{r.ks.keys[i].name, seq})
		}
	}
	for _, c := range r.conns {
		for _, n := range c.minted {
			wants = append(wants, want{n, 1})
		}
	}
	get := r.st.client.Get
	if r.cfg.w.strong {
		get = r.st.client.StrongGet
	}
	var lost atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < loadConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(wants); i += loadConns {
				w := wants[i]
				deadline := time.Now().Add(5 * time.Second)
				for {
					val, err := get(context.Background(), w.name)
					var seq uint64
					if err == nil {
						_, seq, err = decodeValue(val)
					}
					if err == nil && seq >= w.seq {
						break
					}
					if time.Now().After(deadline) {
						lost.Add(1)
						r.violate("lost acked write: %s acked at sequence %d, read back %d (%v)", w.name, w.seq, seq, err)
						break
					}
					time.Sleep(20 * time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()
	return int(lost.Load())
}

// liveBytes is the user data the cluster holds: one value per live key.
func (r *runner) liveBytes() float64 {
	n := len(r.ks.keys)
	for _, c := range r.conns {
		n += len(c.minted)
	}
	return float64(n * r.cfg.sz.valueBytes)
}

// setup builds a stack and preloads it, timing the whole of it.
func setup(cfg runConfig, dir string, rec *recorder) (*stack, *runner, time.Duration, error) {
	begin := time.Now()
	st, err := boot(cfg.sz, dir, cfg.w.strong, rec)
	if err != nil {
		return nil, nil, 0, err
	}
	r := newRunner(cfg, st, newKeyspace(cfg.seed, cfg.w.keys(cfg.sz), cfg.w.strong))
	if err := r.preload(); err != nil {
		r.closeConns()
		st.close()
		return nil, nil, 0, err
	}
	return st, r, time.Since(begin), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, med, _ := quartiles(v)
	return med
}

// opStats summarises a window's samples.
type opStats struct {
	attempted, failed  int
	ok, okPuts, okGets float64
}

func summarize(d driveResult) opStats {
	s := opStats{attempted: len(d.samples) + d.backlog, failed: d.backlog}
	for _, x := range d.samples {
		switch {
		case !x.ok:
			s.failed++
		case x.kind == opPut:
			s.okPuts++
		default:
			s.okGets++
		}
	}
	s.ok = s.okPuts + s.okGets
	return s
}

// opsPerSec is the successful-op rate over one third (0, 1 or 2) of the
// window.
func opsPerSec(d driveResult, third int) float64 {
	lo, hi := d.elapsed*time.Duration(third)/3, d.elapsed*time.Duration(third+1)/3
	n := 0
	for _, x := range d.samples {
		if x.ok && x.end >= lo && (x.end < hi || third == 2) {
			n++
		}
	}
	return float64(n) / (hi - lo).Seconds()
}

func lat(s sample) time.Duration { return s.lat }

// runPass runs one workload once: untraced it reports the end-to-end
// metrics, traced the per-layer ones.
func runPass(cfg runConfig) (res result, err error) {
	res = result{workload: cfg.w.name, traced: cfg.traced}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return res, err
	}
	dataDir, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dataDir)

	// Set-up is repeated and its median reported, so that one slow boot does
	// not read as a regression; the last cluster built is the one measured.
	var rec *recorder
	setups := cfg.sz.setups
	if cfg.traced {
		rec, setups = newRecorder(), 1
	}
	var st *stack
	var r *runner
	var setupSecs []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			r.closeConns()
			st.close()
		}
		var took time.Duration
		st, r, took, err = setup(cfg, filepath.Join(dataDir, fmt.Sprintf("cluster-%d", i)), rec)
		if err != nil {
			return res, err
		}
		setupSecs = append(setupSecs, took.Seconds())
	}
	defer func() {
		r.closeConns()
		st.close()
	}()

	r.drive(loadConns, cfg.seed, cfg.sz.warmup)
	if cfg.traced {
		err = r.tracedPass(&res, dataDir)
	} else {
		r.untracedPass(&res, median(setupSecs))
	}
	res.violations = r.violations
	return res, err
}

// windowSlices is how many equal slices of the window each timed end-to-end
// metric is computed over. The reported value is the median slice: on a
// shared machine whole seconds run slow, and a median shrugs off the few
// that do where a mean would not.
const windowSlices = 16

// sampleRSS reads the resident set at the end of every slice of a window
// beginning now.
func sampleRSS(window time.Duration) []float64 {
	begin := time.Now()
	rss := make([]float64, 0, windowSlices)
	for k := 1; k <= windowSlices; k++ {
		time.Sleep(time.Until(begin.Add(time.Duration(k) * window / windowSlices)))
		rss = append(rss, rssMiB())
	}
	return rss
}

// untracedPass measures the window with nothing of the benchmark's on the
// request path and reports the end-to-end metrics.
func (r *runner) untracedPass(res *result, setupS float64) {
	rssC := make(chan []float64, 1)
	go func() { rssC <- sampleRSS(r.cfg.window) }()
	d := r.drive(loadConns, r.cfg.seed+1, r.cfg.window)
	rss := <-rssC // the sampler ends with the window, the drive just after
	s := summarize(d)
	if r.cfg.w.writes() {
		r.readBack()
	}
	slice := r.cfg.window / windowSlices
	ok := make([]float64, windowSlices)
	lats := make([][]time.Duration, windowSlices)
	for _, x := range d.samples {
		k := int(x.end / slice)
		if k >= windowSlices || !x.ok {
			continue // completed after the window closed, or failed
		}
		ok[k]++
		if x.kind == r.cfg.w.primary {
			lats[k] = append(lats[k], x.lat)
		}
	}
	var opsS, p50 []float64
	for k := 0; k < windowSlices; k++ {
		opsS = append(opsS, ok[k]/slice.Seconds())
		if len(lats[k]) > 0 {
			p50 = append(p50, quantile(lats[k], 0.5))
		}
	}
	res.attempted, res.failed = s.attempted, s.failed
	res.metrics = []metric{
		{"setup_s", setupS, "s"},
		{"ops_s", median(opsS), "1/s"},
		{"p50_ms", median(p50), "ms"},
		{"rss_mb", median(rss), "MiB"},
	}
}

// tracedSlices is how many times the traced phase turns the spans on.
const tracedSlices = 5

// tracedPass reports the per-layer metrics from two phases on one cluster: a
// counter window (half the run's seconds) under the measured load with the
// decorators dormant, then one client for an eighth with spans on and an
// eighth with them off. With set-up done once and the probes, a traced run
// takes about as long as an untraced one.
func (r *runner) tracedPass(res *result, dataDir string) error {
	rec := r.st.rec
	w := window{before: readCounters(r.st)}
	d := r.drive(loadConns, r.cfg.seed+1, r.cfg.window/2)
	w.after = readCounters(r.st)
	s := summarize(d)

	// One client, spans off and on in alternating slices, so that drift in
	// the cluster's state cancels out of the overhead.
	var solo, traced []sample
	for i := 0; i < 2*tracedSlices; i++ {
		on := i%2 == 1
		rec.on.Store(on)
		got := r.drive(1, r.cfg.seed+2+int64(i), r.cfg.window/(8*tracedSlices)).samples
		if on {
			traced = append(traced, got...)
		} else {
			solo = append(solo, got...)
		}
	}
	rec.on.Store(false)

	lost := 0
	spaceAmp := 0.0
	if r.cfg.w.writes() {
		lost = r.readBack()
		spaceAmp = ratio(float64(dirBytes(dataDir)), r.liveBytes())
	}

	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()
	resolve(spans)
	if err := dumpSpans(filepath.Join(r.cfg.outDir, "trace-"+r.cfg.w.name+".json"), spans); err != nil {
		return err
	}
	b := blockingBudget(spans)

	probes, err := runProbes(r.cfg.sz, r.ks, dataDir)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}

	userBytes := s.okPuts * float64(r.cfg.sz.valueBytes)
	puts, gets := latencies(d.samples, opPut, lat), latencies(d.samples, opGet, lat)
	primary := puts
	if r.cfg.w.primary == opGet {
		primary = gets
	}
	putTail, putP95 := tail(puts)
	getTail, getP95 := tail(gets)
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	res.attempted, res.failed = s.attempted, s.failed
	m := []metric{
		{"put_p50_ms", quantile(puts, 0.5), "ms"},
		{"put_p99_ms", putTail, "ms"},
		{"put_p99_is_p95", flag(putP95 && len(puts) > 0), "flag"},
		{"get_p50_ms", quantile(gets, 0.5), "ms"},
		{"get_p99_ms", getTail, "ms"},
		{"get_p99_is_p95", flag(getP95 && len(gets) > 0), "flag"},
		{"p95_ms", quantile(primary, 0.95), "ms"},
		{"cpu_ms_per_op", ratio(w.delta("cpu_ns")/1e6, float64(s.attempted)), "ms/op"},
		{"rss_peak_mb", rssPeakMiB(), "MiB"},
		{"early_ops_s", opsPerSec(d, 0), "1/s"},
		{"late_ops_s", opsPerSec(d, 2), "1/s"},
		{"fail_share", ratio(float64(s.failed), float64(s.attempted)), "share"},
		{"write_amp", ratio(w.delta("io_write_bytes"), userBytes), "x"},
		{"space_amp", spaceAmp, "x"},
		{"lost_acked_writes", float64(lost), "count"},
		{"stale_strong_reads", float64(r.staleStrong.Load()), "count"},
	}
	m = append(m, counterMetrics(w, s.ok, s.okPuts, s.okGets, userBytes)...)
	m = append(m, spanMetrics(spans, b)...)
	m = append(m, probes...)

	// The generator itself: how late it sent, what it could not send, how
	// busy its connections were, and what tracing cost.
	var lags []time.Duration
	var busy time.Duration
	for _, x := range d.samples {
		lags = append(lags, x.lag)
		busy += x.svc
	}
	soloP50 := quantile(latencies(solo, r.cfg.w.primary, lat), 0.5)
	tracedP50 := quantile(latencies(traced, r.cfg.w.primary, lat), 0.5)
	m = append(m,
		metric{"loadgen.sched_lag_p99_ms", quantile(lags, 0.99), "ms"},
		metric{"loadgen.backlog_end", float64(d.backlog), "count"},
		metric{"loadgen.conn_busy_share", ratio(busy.Seconds(), float64(loadConns)*d.elapsed.Seconds()), "share"},
		metric{"trace.overhead_share", ratio(tracedP50, soloP50) - 1, "share"},
		metric{"trace.coverage", b.coverage(), "share"},
	)
	res.metrics = m
	return nil
}

// spanMetrics turns the traced window into the time budget: per-request
// blocking time by layer, and mean durations at each boundary.
func spanMetrics(spans []span, b budget) []metric {
	is := func(name, msg string, strong bool) func(*span) bool {
		return func(s *span) bool { return s.Name == name && s.Msg == msg && s.Strong == strong && s.Request != 0 }
	}
	var putBytes, getBytes, putReqs, getReqs float64
	reqKind := map[int64]string{}
	for i := range spans {
		if spans[i].Name == spanRequest {
			reqKind[spans[i].ID] = spans[i].Msg
			if spans[i].Msg == "put" {
				putReqs++
			} else {
				getReqs++
			}
		}
	}
	for i := range spans {
		switch reqKind[spans[i].Request] {
		case "put":
			putBytes += float64(spans[i].Bytes)
		case "get":
			getBytes += float64(spans[i].Bytes)
		}
	}
	return []metric{
		{"rest.self_ms", b.perRequestMs("rest"), "ms"},
		{"cluster.self_ms", b.perRequestMs("cluster"), "ms"},
		{"transport.client_wire_ms", b.perRequestMs("transport.client"), "ms"},
		{"nwr.self_ms", b.perRequestMs("nwr"), "ms"},
		{"consensus.self_ms", b.perRequestMs("consensus"), "ms"},
		{"transport.replica_wire_ms", b.perRequestMs("transport.replica"), "ms"},
		{"replica.self_ms", b.perRequestMs("replica"), "ms"},
		{"cluster.call_ms", meanMs(spans, func(s *span) bool { return s.Name == spanClusterCall }), "ms"},
		{"nwr.coord_put_ms", meanMs(spans, is(spanCoord, "node.put", false)), "ms"},
		{"nwr.coord_get_ms", meanMs(spans, is(spanCoord, "node.get", false)), "ms"},
		{"consensus.coord_put_ms", meanMs(spans, is(spanCoord, "node.put", true)), "ms"},
		{"docstore.apply_ms", meanMs(spans, is(spanReplica, "nwr.put.replica", false)), "ms"},
		{"docstore.read_ms", meanMs(spans, is(spanReplica, "nwr.get.replica", false)), "ms"},
		{"consensus.append_ms", meanMs(spans, is(spanReplica, "cns.append", false)), "ms"},
		{"transport.bytes_per_put", ratio(putBytes, putReqs), "B/op"},
		{"transport.bytes_per_get", ratio(getBytes, getReqs), "B/op"},
	}
}
