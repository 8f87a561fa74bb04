package wal

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTruncateAppendRace hammers TruncateBefore against concurrent
// AppendNoWait with a segment size small enough that appenders roll new
// segments continuously while truncators retire old ones. The consensus
// tier runs exactly this shape — proposals appending to the log while
// snapshot-triggered truncation deletes covered segments — so the test
// exists to run under -race and to prove the suffix survives: after the
// dust settles, every record at or above the highest truncation point must
// replay with its exact payload, densely, in LSN order.
func TestTruncateAppendRace(t *testing.T) {
	l, _ := openTestLog(t, Options{SegmentSize: 512})

	const appenders, perAppender = 4, 400
	var (
		mu       sync.Mutex
		appended = map[LSN][]byte{}
		highest  atomic.Int64 // max LSN appended so far
		maxCut   atomic.Int64 // largest upto passed to TruncateBefore
		done     atomic.Bool
	)

	var wg sync.WaitGroup
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				rec := []byte(fmt.Sprintf("worker-%d-record-%06d", w, i))
				lsn, err := l.AppendNoWait(rec)
				if err != nil {
					t.Errorf("AppendNoWait: %v", err)
					return
				}
				mu.Lock()
				appended[lsn] = rec
				mu.Unlock()
				for {
					prev := highest.Load()
					if int64(lsn) <= prev || highest.CompareAndSwap(prev, int64(lsn)) {
						break
					}
				}
			}
		}(w)
	}

	// Two truncators chase the appenders, always keeping a tail of records
	// live, interleaved with SegmentCount (which walks the directory the
	// truncators are deleting from).
	var twg sync.WaitGroup
	for tr := 0; tr < 2; tr++ {
		twg.Add(1)
		go func() {
			defer twg.Done()
			for !done.Load() {
				upto := highest.Load() - 64
				if upto > 0 {
					if err := l.TruncateBefore(LSN(upto)); err != nil {
						t.Errorf("TruncateBefore(%d): %v", upto, err)
						return
					}
					for {
						prev := maxCut.Load()
						if upto <= prev || maxCut.CompareAndSwap(prev, upto) {
							break
						}
					}
				}
				if _, err := l.segmentCount(); err != nil {
					t.Errorf("SegmentCount: %v", err)
					return
				}
				runtime.Gosched()
			}
		}()
	}

	wg.Wait()
	done.Store(true)
	twg.Wait()
	if t.Failed() {
		return
	}
	// One final cut with everything quiet, so the check below exercises a
	// truncation point near the end of the log too.
	cut := LSN(highest.Load() - 64)
	if err := l.TruncateBefore(cut); err != nil {
		t.Fatalf("final TruncateBefore: %v", err)
	}

	survivors := collect(t, l, 1)
	if len(survivors) == 0 {
		t.Fatal("nothing survived truncation")
	}
	var minL LSN = ^LSN(0)
	for lsn := range survivors {
		if lsn < minL {
			minL = lsn
		}
	}
	top := LSN(highest.Load())
	if minL > cut {
		t.Fatalf("truncation removed records >= its cut: first survivor %d > cut %d", minL, cut)
	}
	// The surviving suffix must be dense and byte-exact: TruncateBefore
	// only removes whole segments whose every record is below the cut.
	for lsn := minL; lsn <= top; lsn++ {
		got, ok := survivors[lsn]
		if !ok {
			t.Fatalf("hole in surviving suffix at lsn %d (suffix %d..%d)", lsn, minL, top)
		}
		mu.Lock()
		want := appended[lsn]
		mu.Unlock()
		if !bytes.Equal(got, want) {
			t.Fatalf("lsn %d: replayed %q, appended %q", lsn, got, want)
		}
	}
}
