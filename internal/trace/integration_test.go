package trace_test

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mystore"
	"mystore/internal/trace"
)

// tracedSpan mirrors the /debug/traces span JSON.
type tracedSpan struct {
	Span   uint64        `json:"span"`
	Parent uint64        `json:"parent"`
	Name   string        `json:"name"`
	Peer   string        `json:"peer"`
	DurNs  time.Duration `json:"durNs"`
	Err    string        `json:"err"`
}

// tracedTrace mirrors the /debug/traces trace JSON.
type tracedTrace struct {
	ID    string        `json:"id"`
	Root  string        `json:"root"`
	DurNs time.Duration `json:"durNs"`
	Slow  bool          `json:"slow"`
	Spans []tracedSpan  `json:"spans"`
}

func fetchTraces(t *testing.T, url string) []tracedTrace {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces?n=10")
	if err != nil {
		t.Fatalf("GET /debug/traces: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces: status %d", resp.StatusCode)
	}
	var out []tracedTrace
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode traces: %v", err)
	}
	return out
}

func findTrace(traces []tracedTrace, root string) (tracedTrace, bool) {
	for _, tr := range traces {
		if tr.Root == root {
			return tr, true
		}
	}
	return tracedTrace{}, false
}

// TestTracePropagationAcrossCluster drives one Put and one Get through the
// full stack — HTTP gateway, worker pool, cluster client, simulated
// transport, NWR coordinator, document store, WAL — on a five-node durable
// cluster and asserts the request produced a single trace whose spans cover
// every layer, form a rooted tree (no orphans), and whose root duration
// matches the externally measured end-to-end latency.
func TestTracePropagationAcrossCluster(t *testing.T) {
	cl, err := mystore.StartCluster(mystore.ClusterOptions{
		Nodes: 5, N: 3, W: 3, R: 1, // W = N: every replica span completes before the root finalizes
		DataDir: t.TempDir(),
		Durable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}

	collector := trace.NewCollector(trace.Config{})
	gw := mystore.NewGateway(mystore.ClusterBackend{Client: client}, mystore.GatewayOptions{
		Trace: collector,
	})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	start := time.Now()
	resp, err := http.Post(srv.URL+"/data/Resistor5", "application/octet-stream",
		strings.NewReader("<component id=\"Resistor5\"/>"))
	e2e := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}

	if getResp, err := http.Get(srv.URL + "/data/Resistor5"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, getResp.Body) //nolint:errcheck
		getResp.Body.Close()
		if getResp.StatusCode != http.StatusOK {
			t.Fatalf("GET status = %d", getResp.StatusCode)
		}
	}

	traces := fetchTraces(t, srv.URL)

	put, ok := findTrace(traces, "rest.post")
	if !ok {
		t.Fatalf("no rest.post trace among %d traces", len(traces))
	}
	if put.ID == "" || put.ID == fmt.Sprintf("%016x", 0) {
		t.Fatalf("put trace has no id: %+v", put)
	}

	// Every layer of the write path must appear.
	counts := map[string]int{}
	for _, sp := range put.Spans {
		counts[sp.Name]++
	}
	for _, layer := range []string{
		"rest.post", "dispatch.queue", "cluster.call", "transport.call",
		"nwr.write", "nwr.replica", "docstore.apply", "wal.commit",
	} {
		if counts[layer] == 0 {
			t.Errorf("put trace missing %q span; spans = %v", layer, counts)
		}
	}
	if counts["nwr.replica"] != 3 {
		t.Errorf("nwr.replica spans = %d, want 3 (N=W=3)", counts["nwr.replica"])
	}

	// The tree must be rooted: exactly one parentless span, every other
	// parent resolvable within the trace (no orphans).
	ids := map[uint64]bool{}
	for _, sp := range put.Spans {
		if sp.Span == 0 {
			t.Errorf("span %q has zero id", sp.Name)
		}
		ids[sp.Span] = true
	}
	roots := 0
	for _, sp := range put.Spans {
		if sp.Parent == 0 {
			roots++
			if sp.Name != "rest.post" {
				t.Errorf("parentless span %q, want only rest.post at the root", sp.Name)
			}
			continue
		}
		if !ids[sp.Parent] {
			t.Errorf("orphan span %q: parent %d not in trace", sp.Name, sp.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("root spans = %d, want 1", roots)
	}

	// The root span is the gateway's measurement of the same interval we
	// timed around the HTTP call; the two must agree within 10% (plus a small
	// absolute allowance for HTTP client overhead on fast machines). Children
	// must nest within the root.
	root := put.Spans[0]
	for _, sp := range put.Spans {
		if sp.Name == "rest.post" {
			root = sp
		}
	}
	if root.DurNs > e2e {
		t.Errorf("root span %v exceeds measured end-to-end %v", root.DurNs, e2e)
	}
	if diff := e2e - root.DurNs; diff > e2e/10+5*time.Millisecond {
		t.Errorf("root span %v vs end-to-end %v: diff %v exceeds 10%%+5ms", root.DurNs, e2e, diff)
	}
	for _, sp := range put.Spans {
		if sp.DurNs > put.DurNs {
			t.Errorf("span %q (%v) outlasts its trace (%v)", sp.Name, sp.DurNs, put.DurNs)
		}
	}

	// The read path traces too.
	get, ok := findTrace(traces, "rest.get")
	if !ok {
		t.Fatalf("no rest.get trace among %d traces", len(traces))
	}
	gcounts := map[string]int{}
	for _, sp := range get.Spans {
		gcounts[sp.Name]++
	}
	for _, layer := range []string{"rest.get", "dispatch.queue", "cluster.call", "nwr.read", "nwr.replica.read"} {
		if gcounts[layer] == 0 {
			t.Errorf("get trace missing %q span; spans = %v", layer, gcounts)
		}
	}
}

// TestSlowOpLogEndToEnd checks a request crossing the threshold lands in the
// slow-op log with its layer breakdown.
func TestSlowOpLogEndToEnd(t *testing.T) {
	cl, err := mystore.StartCluster(mystore.ClusterOptions{Nodes: 3, N: 3, W: 3, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client, err := cl.Client()
	if err != nil {
		t.Fatal(err)
	}

	// The slow-op log goes to the standard logger.
	var out lockedBuffer
	prev := log.Writer()
	log.SetOutput(&out)
	t.Cleanup(func() { log.SetOutput(prev) })
	collector := trace.NewCollector(trace.Config{
		SlowThreshold: time.Nanosecond, // everything is slow
	})
	gw := mystore.NewGateway(mystore.ClusterBackend{Client: client}, mystore.GatewayOptions{Trace: collector})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/data/k", "application/octet-stream", strings.NewReader("v"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	var line string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "slow-op") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatal("no slow-op lines emitted")
	}
	for _, want := range []string{"slow-op", "op=rest.post", "nwr.write"} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-op line %q missing %q", line, want)
		}
	}
}

// lockedBuffer is an io.Writer the logger and the test share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
