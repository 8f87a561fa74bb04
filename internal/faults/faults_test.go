package faults

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestPaperTable2Probabilities(t *testing.T) {
	p := PaperTable2()
	want := map[Kind]float64{
		NetworkException: 0.1,
		DiskIOError:      0.002,
		BlockingProcess:  0.002,
		NodeBreakdown:    0.001,
	}
	for k, v := range want {
		if p[k] != v {
			t.Errorf("PaperTable2[%s] = %v, want %v", k, p[k], v)
		}
	}
}

func TestKindStringsAndShortness(t *testing.T) {
	for k, want := range map[Kind]string{
		NetworkException: "network exception",
		DiskIOError:      "disk IO error",
		BlockingProcess:  "blocking processing",
		NodeBreakdown:    "node breakdown",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !NetworkException.isShort() || !DiskIOError.isShort() || !BlockingProcess.isShort() {
		t.Error("short failures misclassified")
	}
	if NodeBreakdown.isShort() {
		t.Error("NodeBreakdown classified as short")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind String")
	}
}

func TestKindErrMapping(t *testing.T) {
	if !errors.Is(NetworkException.Err(), ErrNetwork) ||
		!errors.Is(DiskIOError.Err(), ErrDiskIO) ||
		!errors.Is(BlockingProcess.Err(), ErrBlocking) ||
		!errors.Is(NodeBreakdown.Err(), ErrNodeDown) {
		t.Error("Err mapping wrong")
	}
	if Kind(42).Err() == nil {
		t.Error("unknown kind Err = nil")
	}
}

func TestRollFrequencies(t *testing.T) {
	in := NewInjector(Plan{NetworkException: 0.1}, 1)
	in.NetworkDelay = 0 // 50k rolls; the timeout model is tested separately
	const trials = 50000
	fails := 0
	for i := 0; i < trials; i++ {
		if _, err := in.Roll("node-x"); err != nil {
			fails++
		}
	}
	got := float64(fails) / trials
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("network exception rate = %.4f, want ~0.1", got)
	}
	if in.Counts()[NetworkException] != int64(fails) {
		t.Fatalf("Counts = %v, fired %d", in.Counts(), fails)
	}
}

func TestRollDeterministicForSeed(t *testing.T) {
	a := NewInjector(PaperTable2(), 42)
	b := NewInjector(PaperTable2(), 42)
	a.BlockDelay, b.BlockDelay = 0, 0
	a.NetworkDelay, b.NetworkDelay = 0, 0
	for i := 0; i < 2000; i++ {
		ka, ea := a.Roll("n")
		kb, eb := b.Roll("n")
		if ka != kb || (ea == nil) != (eb == nil) {
			t.Fatalf("divergence at roll %d: %v/%v vs %v/%v", i, ka, ea, kb, eb)
		}
		if ea != nil && errors.Is(ea, ErrNodeDown) {
			break // both are down from here on; nothing further to compare
		}
	}
}

func TestNodeBreakdownSticks(t *testing.T) {
	in := NewInjector(Plan{NodeBreakdown: 1.0}, 7)
	if _, err := in.Roll("n1"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("first roll err = %v", err)
	}
	if !in.IsDown("n1") {
		t.Fatal("node not marked down")
	}
	if _, err := in.Roll("n1"); !errors.Is(err, ErrNodeDown) {
		t.Fatal("down node accepted an operation")
	}
	if in.IsDown("n2") {
		t.Fatal("unrelated node marked down")
	}
	down := in.Down()
	if len(down) != 1 || down[0] != "n1" {
		t.Fatalf("Down() = %v", down)
	}
	in.Recover("n1")
	if in.IsDown("n1") {
		t.Fatal("Recover did not clear breakdown")
	}
}

func TestBreakForcesBreakdown(t *testing.T) {
	in := NewInjector(Plan{}, 1)
	in.breakDown("n")
	if _, err := in.Roll("n"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v after breakDown", err)
	}
}

func TestBlockingProcessDelaysButSucceeds(t *testing.T) {
	in := NewInjector(Plan{BlockingProcess: 1.0}, 1)
	in.BlockDelay = 30 * time.Millisecond
	start := time.Now()
	k, err := in.Roll("n")
	if err != nil {
		t.Fatalf("blocking roll err = %v, want nil (operation proceeds)", err)
	}
	if k != BlockingProcess {
		t.Fatalf("kind = %v, want BlockingProcess", k)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("blocking fault stalled only %v", elapsed)
	}
}

func TestNetworkExceptionCostsItsTimeout(t *testing.T) {
	in := NewInjector(Plan{NetworkException: 1.0}, 1)
	in.NetworkDelay = 30 * time.Millisecond
	start := time.Now()
	_, err := in.Roll("n")
	if !errors.Is(err, ErrNetwork) {
		t.Fatalf("err = %v, want ErrNetwork", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("network exception surfaced in %v, want ~30ms (the connection timeout)", elapsed)
	}
}

func TestNoneNeverFires(t *testing.T) {
	in := NewInjector(Plan{}, 3)
	for i := 0; i < 10000; i++ {
		if k, err := in.Roll("n"); k != 0 || err != nil {
			t.Fatalf("None plan fired %v/%v", k, err)
		}
	}
}

func TestConcurrentRolls(t *testing.T) {
	in := NewInjector(PaperTable2(), 11)
	in.BlockDelay = 0
	in.NetworkDelay = 0
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				in.Roll("shared-node") //nolint:errcheck
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	// Sanity: the counters are consistent (no torn updates).
	total := int64(0)
	for _, c := range in.Counts() {
		total += c
	}
	if total <= 0 {
		t.Fatal("no faults fired across 8000 rolls of Table 2")
	}
}

// isShort reports whether the kind is a short failure (self-recovering).
func (k Kind) isShort() bool { return k != NodeBreakdown }

// breakDown forces a node into breakdown.
func (in *Injector) breakDown(node string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.down[node] = true
}
