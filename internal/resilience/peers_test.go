package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic peer-view tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newView() (*Peers, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return NewPeers("self", clk.now), clk
}

// suspect reports suspectAfter failed calls to addr, which makes an up peer
// suspect.
func suspect(v *Peers, addr string) {
	for i := 0; i < suspectAfter; i++ {
		v.Report(addr, false)
	}
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	v, _ := newView()
	if !v.Usable("b") {
		t.Fatal("an unknown peer must be up")
	}
	v.Report("b", false)
	v.Report("b", false)
	if !v.Usable("b") {
		t.Fatal("two failures must leave the peer up")
	}
	v.Report("b", false)
	if v.Usable("b") {
		t.Fatal("three consecutive failures must make the peer suspect")
	}
	if st := v.Stats(); st.Opened != 1 || st.FastFailures != 1 || v.NotUp() != 1 {
		t.Fatalf("stats = %+v, NotUp = %d; want 1 opened, 1 fast failure, 1 not up", st, v.NotUp())
	}
}

func TestBreakerSuccessClearsFailureRun(t *testing.T) {
	v, _ := newView()
	v.Report("b", false)
	v.Report("b", false)
	v.Report("b", true)
	v.Report("b", false)
	v.Report("b", false)
	if !v.Usable("b") {
		t.Fatal("a success must clear the failure run")
	}
}

// TestBreakerHalfOpenProbeCycle: a suspect peer is refused inside its window;
// once the window ends exactly one caller goes (the probe), a failed probe
// opens a fresh window, and a successful one makes the peer up.
func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	v, clk := newView()
	suspect(v, "b")
	clk.advance(suspectFor - time.Millisecond)
	if v.Usable("b") {
		t.Fatal("a suspect peer must be refused inside its window")
	}
	clk.advance(time.Millisecond)
	if !v.Usable("b") {
		t.Fatal("a suspect peer must admit one probe when its window ends")
	}
	if v.Usable("b") {
		t.Fatal("a second caller in the same window must be refused")
	}
	v.Report("b", false) // the probe failed
	clk.advance(suspectFor - time.Millisecond)
	if v.Usable("b") {
		t.Fatal("a failed probe must open a fresh window")
	}
	clk.advance(time.Millisecond)
	if !v.Usable("b") {
		t.Fatal("the next window must admit the next probe")
	}
	v.Report("b", true)
	if !v.Usable("b") || !v.Usable("b") || v.NotUp() != 0 {
		t.Fatal("a successful probe must make the peer up")
	}
	if st := v.Stats(); st.Opened != 2 || st.Probes != 2 || st.FastFailures != 3 {
		t.Fatalf("stats = %+v, want 2 opened, 2 probes, 3 fast failures", st)
	}
}

// TestOneProbePerWindowUnderConcurrency: of many callers racing for a
// suspect peer whose window has ended, exactly one goes.
func TestOneProbePerWindowUnderConcurrency(t *testing.T) {
	v, clk := newView()
	suspect(v, "b")
	clk.advance(suspectFor)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v.Usable("b") {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("%d callers admitted in one window, want exactly 1", got)
	}
}

// TestBreakerSetGossipFeed: gossip Up makes a suspect peer up; the seeds'
// long failure makes a peer down until gossip reports it up, whatever calls
// report; this node itself is always usable.
func TestBreakerSetGossipFeed(t *testing.T) {
	v, clk := newView()
	suspect(v, "b")
	if v.Usable("b") {
		t.Fatal("a suspect peer must be refused")
	}
	v.Up("b")
	if !v.Usable("b") {
		t.Fatal("a peer gossip reports up must be usable")
	}
	v.Down("c")
	v.Report("c", true)
	suspect(v, "c")
	clk.advance(time.Hour)
	if v.Usable("c") {
		t.Fatal("a long-failed peer must stay refused until gossip reports it up")
	}
	v.Up("c")
	if !v.Usable("c") {
		t.Fatal("gossip Up must leave down")
	}
	for i := 0; i < suspectAfter; i++ {
		v.Report("self", false)
	}
	if !v.Usable("self") {
		t.Fatal("this node must always be usable")
	}
	if st := v.Stats(); st.Opened != 2 || st.FastFailures != 2 || st.Probes != 0 {
		t.Fatalf("stats = %+v, want 2 opened, 2 fast failures, 0 probes", st)
	}
}

// TestOpenBreakerCostsCallersMicroseconds is the acceptance check: with a
// peer suspect, the caller learns "don't bother" in well under a
// millisecond, instead of burning a multi-second CallTimeout per attempt.
func TestOpenBreakerCostsCallersMicroseconds(t *testing.T) {
	v, _ := newView()
	suspect(v, "dead:19870")

	const calls = 1000
	start := time.Now()
	for i := 0; i < calls; i++ {
		if v.Usable("dead:19870") {
			t.Fatal("a suspect peer must be refused")
		}
	}
	if perCall := time.Since(start) / calls; perCall >= time.Millisecond {
		t.Fatalf("refusing a suspect peer cost %v per call, want < 1ms", perCall)
	}
	if st := v.Stats(); st.FastFailures != calls {
		t.Fatalf("FastFailures = %d, want %d", st.FastFailures, calls)
	}
}

// TestUsableUpPeerAllocatesNothing: Usable and a success Report sit on every
// replica RPC, so for an up peer they must not allocate.
func TestUsableUpPeerAllocatesNothing(t *testing.T) {
	v, _ := newView()
	v.Report("b", false)
	v.Report("b", true) // b is known to the view and up
	allocs := testing.AllocsPerRun(1000, func() {
		v.Usable("a")
		v.Usable("b")
		v.Report("a", true)
		v.Report("b", true)
	})
	if allocs != 0 {
		t.Fatalf("Usable/Report on up peers allocate %v per run, want 0", allocs)
	}
}
