package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 1000 {
		t.Fatalf("Counter = %d, want 1000", got)
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{Bytes: 10e6, Ops: 500, Elapsed: 2 * time.Second}
	if got := tp.MBPerSec(); got != 5 {
		t.Errorf("MBPerSec = %v, want 5", got)
	}
	if got := tp.RPS(); got != 250 {
		t.Errorf("RPS = %v, want 250", got)
	}
	zero := Throughput{}
	if zero.MBPerSec() != 0 || zero.RPS() != 0 {
		t.Error("zero-elapsed throughput should report 0")
	}
	if s := tp.String(); s == "" {
		t.Error("String() empty")
	}
}

func TestTimeSeries(t *testing.T) {
	start := time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)
	ts := NewTimeSeries(start, time.Second)
	ts.Record(start)
	ts.Record(start.Add(200 * time.Millisecond))
	ts.Record(start.Add(1500 * time.Millisecond))
	ts.Record(start.Add(3 * time.Second))
	got := ts.Buckets()
	want := []int64{2, 1, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if ts.BucketWidth() != time.Second {
		t.Errorf("BucketWidth = %v, want 1s", ts.BucketWidth())
	}
}

func TestTimeSeriesBeforeStartClamps(t *testing.T) {
	start := time.Now()
	ts := NewTimeSeries(start, time.Second)
	ts.Record(start.Add(-5 * time.Second))
	if got := ts.Buckets(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("record before start: buckets = %v, want [1]", got)
	}
}

func TestTimeSeriesZeroBucketDefaults(t *testing.T) {
	ts := NewTimeSeries(time.Now(), 0)
	if ts.BucketWidth() != time.Second {
		t.Fatalf("zero bucket width should default to 1s, got %v", ts.BucketWidth())
	}
}
