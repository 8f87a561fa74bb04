package simdisk

import (
	"sync"
	"testing"
	"time"
)

func TestServiceTimeScalesWithSize(t *testing.T) {
	d := New(Params{Seek: time.Millisecond, BytesPerSec: 1e6, Spindles: 1})
	small := d.ServiceTime(1000)
	big := d.ServiceTime(1000000)
	if small != time.Millisecond+time.Millisecond {
		t.Fatalf("ServiceTime(1KB) = %v, want 2ms (1ms seek + 1ms transfer)", small)
	}
	if big <= small {
		t.Fatalf("ServiceTime(1MB)=%v should exceed ServiceTime(1KB)=%v", big, small)
	}
}

func TestAccessTakesServiceTime(t *testing.T) {
	d := New(Params{Seek: 10 * time.Millisecond, BytesPerSec: 1e9, Spindles: 1})
	start := time.Now()
	d.Access(0)
	if elapsed := time.Since(start); elapsed < 9*time.Millisecond {
		t.Fatalf("Access returned after %v, want >= ~10ms", elapsed)
	}
}

func TestSpindlesLimitConcurrency(t *testing.T) {
	// Two spindles, four concurrent 20ms requests: total wall time must be
	// at least two batches (~40ms), not one (~20ms).
	d := New(Params{Seek: 20 * time.Millisecond, BytesPerSec: 1e12, Spindles: 2})
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Access(0)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Fatalf("4 requests on 2 spindles finished in %v, want >= ~40ms", elapsed)
	}
}

func TestStats(t *testing.T) {
	d := New(Params{Seek: time.Millisecond, BytesPerSec: 1e9, Spindles: 2})
	for i := 0; i < 5; i++ {
		d.Access(100)
	}
	reqs, busy := d.stats()
	if reqs != 5 {
		t.Fatalf("requests = %d, want 5", reqs)
	}
	if busy < 5*time.Millisecond {
		t.Fatalf("busy = %v, want >= 5ms", busy)
	}
}

func TestDefaults(t *testing.T) {
	d := New(Params{})
	if st := d.ServiceTime(0); st != 100*time.Microsecond {
		t.Fatalf("default seek = %v, want 100µs", st)
	}
	// 100 MB at 100 MB/s = 1s transfer.
	if st := d.ServiceTime(100e6); st < time.Second {
		t.Fatalf("ServiceTime(100MB) = %v, want >= 1s", st)
	}
}

// stats reports requests served and cumulative busy time.
func (d *Disk) stats() (requests int64, busy time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.requests, d.busyTotal
}
