package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestGroupCommitDurableAppends checks the basic contract: with
// SyncEveryAppend on, every Append that returned has its record on disk, in
// LSN order, whether the fsyncs were coalesced or not.
func TestGroupCommitDurableAppends(t *testing.T) {
	l, _ := openTestLog(t, Options{SyncEveryAppend: true})
	const writers, perWriter = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	recs := collect(t, l, 1)
	if len(recs) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*perWriter)
	}
	st := l.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("Appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.Fsyncs == 0 {
		t.Fatal("no fsyncs recorded under SyncEveryAppend")
	}
}

// TestGroupCommitCoalesces drives many concurrent writers and asserts fsyncs
// were actually shared: far fewer fsyncs than appends (the ISSUE acceptance
// bar is fsyncs-per-op < 0.25 at 64 writers).
func TestGroupCommitCoalesces(t *testing.T) {
	l, _ := openTestLog(t, Options{SyncEveryAppend: true})
	const writers, perWriter = 64, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	ratio := float64(st.Fsyncs) / float64(st.Appends)
	t.Logf("appends=%d fsyncs=%d ratio=%.3f maxBatch=%d", st.Appends, st.Fsyncs, ratio, st.MaxBatch)
	if ratio >= 0.25 {
		t.Fatalf("fsyncs-per-append = %.3f, want < 0.25 (no coalescing happening)", ratio)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("MaxBatch = %d, want >= 2", st.MaxBatch)
	}
}

// TestWaitDurableNoSyncEveryAppend: WaitDurable is a no-op without
// SyncEveryAppend, so the AppendNoWait+WaitDurable split is safe to use
// unconditionally by the docstore.
func TestWaitDurableNoSyncEveryAppend(t *testing.T) {
	l, _ := openTestLog(t, Options{})
	lsn, err := l.AppendNoWait([]byte("x"))
	if err != nil {
		t.Fatalf("AppendNoWait: %v", err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
}

// TestGroupCommitAcrossSegmentRoll: rolling to a new segment mid-stream must
// not lose durability tracking for records in the outgoing segment.
func TestGroupCommitAcrossSegmentRoll(t *testing.T) {
	l, _ := openTestLog(t, Options{SyncEveryAppend: true, SegmentSize: 256})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d-padding-padding", w, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := l.segmentCount(); n < 2 {
		t.Fatalf("segmentCount = %d, want >= 2 (segment size too big for test)", n)
	}
	recs := collect(t, l, 1)
	if len(recs) != 8*30 {
		t.Fatalf("replayed %d records, want %d", len(recs), 8*30)
	}
}

// TestGroupCommitCrashPrefix is the crash-consistency test: concurrent
// writers append under group commit, then we simulate a crash by copying the
// live segment files and cutting the newest copy at an arbitrary byte offset
// — truncated there when the segment is a growing file, zero from there on
// when it is preallocated (the bytes a crash never wrote). Replaying the copy
// must always yield an exact LSN prefix of the full log — never a hole, never
// a reordering, never a corrupt record surviving.
func TestGroupCommitCrashPrefix(t *testing.T) {
	for _, layout := range layouts {
		t.Run(layout, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{SyncEveryAppend: true, SegmentSize: 64 << 10}
			l, _ := openLayout(t, dir, layout, opts)
			const writers, perWriter = 8, 25
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
							t.Errorf("Append: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			full := collect(t, l, 1)
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			segs, err := listSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			last := segs[len(segs)-1]
			data, err := os.ReadFile(filepath.Join(dir, last.name))
			if err != nil {
				t.Fatal(err)
			}
			end := len(data)
			if layout == "prepared" {
				offs := recordOffsets(t, filepath.Join(dir, last.name), last.first)
				end = int(offs[len(offs)-1])
			}
			if int(last.first)-1+writers*perWriter > len(full) {
				t.Fatalf("the writers' records are not in the newest segment (first LSN %d of %d)", last.first, len(full))
			}

			// Cut at a spread of arbitrary offsets, including mid-header and
			// mid-payload cuts, and check the recovered log each time.
			for _, cut := range []int{0, 1, 5, headerSize - 1, headerSize, headerSize + 3,
				end / 7, end / 3, end / 2, end - 11, end - 1, end} {
				crashDir := t.TempDir()
				for _, s := range segs[:len(segs)-1] {
					older, err := os.ReadFile(filepath.Join(dir, s.name))
					if err != nil {
						t.Fatal(err)
					}
					os.WriteFile(filepath.Join(crashDir, s.name), older, 0o644) //nolint:errcheck
				}
				crashed := data[:cut]
				if layout == "prepared" {
					crashed = append(append([]byte(nil), crashed...), make([]byte, len(data)-cut)...)
				}
				if err := os.WriteFile(filepath.Join(crashDir, last.name), crashed, 0o644); err != nil {
					t.Fatal(err)
				}
				rl, err := Open(crashDir, opts)
				if err != nil {
					t.Fatalf("reopen after cut at %d: %v", cut, err)
				}
				recovered := collect(t, rl, 1)
				rl.Close()

				// Prefix property: recovered LSNs are exactly 1..k for some k, and
				// each record matches the full log byte for byte.
				for lsn := LSN(1); lsn <= LSN(len(recovered)); lsn++ {
					rec, ok := recovered[lsn]
					if !ok {
						t.Fatalf("cut at %d: hole at lsn %d (recovered %d records)", cut, lsn, len(recovered))
					}
					if string(rec) != string(full[lsn]) {
						t.Fatalf("cut at %d: lsn %d = %q, want %q", cut, lsn, rec, full[lsn])
					}
				}
				if len(recovered) > len(full) || (cut == end) != (len(recovered) == len(full)) {
					t.Fatalf("cut at %d of %d: recovered %d records from a %d-record log", cut, end, len(recovered), len(full))
				}
			}
		})
	}
}

// TestGroupCommitCloseWakesWaiters: closing the log must not strand blocked
// WaitDurable callers.
func TestGroupCommitCloseWakesWaiters(t *testing.T) {
	l, _ := openTestLog(t, Options{SyncEveryAppend: true})
	lsn, err := l.AppendNoWait([]byte("x"))
	if err != nil {
		t.Fatalf("AppendNoWait: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(lsn) }()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close fsyncs before closing, so the record is durable: the waiter must
	// return (nil or ErrClosed are both acceptable — it must not hang).
	if err := <-done; err != nil && err != ErrClosed {
		t.Fatalf("WaitDurable after Close: %v", err)
	}
}

func BenchmarkAppendSyncGroupCommit(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{SyncEveryAppend: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := make([]byte, 256)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	st := l.Stats()
	if st.Appends > 0 {
		b.ReportMetric(float64(st.Fsyncs)/float64(st.Appends), "fsyncs/op")
	}
}
