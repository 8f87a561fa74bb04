package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func openTestLog(t *testing.T, opts Options) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, dir
}

func collect(t *testing.T, l *Log, from LSN) map[LSN][]byte {
	t.Helper()
	out := map[LSN][]byte{}
	err := l.Replay(from, func(lsn LSN, rec []byte) error {
		out[lsn] = append([]byte(nil), rec...)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplay(t *testing.T) {
	l, _ := openTestLog(t, Options{})
	for i := 0; i < 100; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if lsn != LSN(i+1) {
			t.Fatalf("Append lsn = %d, want %d", lsn, i+1)
		}
	}
	recs := collect(t, l, 1)
	if len(recs) != 100 {
		t.Fatalf("replayed %d records, want 100", len(recs))
	}
	if !bytes.Equal(recs[50], []byte("record-49")) {
		t.Fatalf("record 50 = %q", recs[50])
	}
}

func TestReplayFrom(t *testing.T) {
	l, _ := openTestLog(t, Options{})
	for i := 0; i < 20; i++ {
		l.Append([]byte{byte(i)}) //nolint:errcheck
	}
	recs := collect(t, l, 15)
	if len(recs) != 6 {
		t.Fatalf("Replay(15) returned %d records, want 6", len(recs))
	}
	if _, ok := recs[14]; ok {
		t.Fatal("Replay(15) included lsn 14")
	}
}

func TestReplayErrorPropagates(t *testing.T) {
	l, _ := openTestLog(t, Options{})
	l.Append([]byte("a")) //nolint:errcheck
	sentinel := errors.New("stop")
	if err := l.Replay(1, func(LSN, []byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Replay err = %v, want sentinel", err)
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Append([]byte("x")) //nolint:errcheck
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	lsn, err := l2.Append([]byte("after-reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("post-reopen lsn = %d, want 11", lsn)
	}
	recs := map[LSN][]byte{}
	l2.Replay(1, func(l LSN, r []byte) error { recs[l] = append([]byte(nil), r...); return nil }) //nolint:errcheck
	if len(recs) != 11 {
		t.Fatalf("replay after reopen: %d records, want 11", len(recs))
	}
}

func TestSegmentRolling(t *testing.T) {
	l, dir := openTestLog(t, Options{SegmentSize: 256})
	payload := bytes.Repeat([]byte("p"), 100)
	for i := 0; i < 20; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	n, err := l.segmentCount()
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Fatalf("segmentCount = %d, want several after rolling", n)
	}
	recs := collect(t, l, 1)
	if len(recs) != 20 {
		t.Fatalf("replay across segments: %d, want 20", len(recs))
	}
	// Reopen must still see all records and continue numbering.
	l.Close()
	l2, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextLSN(); got != 21 {
		t.Fatalf("NextLSN after reopen = %d, want 21", got)
	}
}

func TestTornTailRepairedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	holdCold(l) // one growing segment: its end is the log's end
	for i := 0; i < 5; i++ {
		l.Append([]byte(fmt.Sprintf("rec-%d", i))) //nolint:errcheck
	}
	l.Close()

	// Simulate a crash mid-append: append garbage and a half-written record.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{recordMagic, 1, 2}) //nolint:errcheck // torn header
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	if got := l2.NextLSN(); got != 6 {
		t.Fatalf("NextLSN = %d, want 6 (torn tail dropped)", got)
	}
	// The log must be appendable and replayable after repair.
	if _, err := l2.Append([]byte("recovered")); err != nil {
		t.Fatal(err)
	}
	recs := map[LSN][]byte{}
	l2.Replay(1, func(l LSN, r []byte) error { recs[l] = append([]byte(nil), r...); return nil }) //nolint:errcheck
	if len(recs) != 6 || !bytes.Equal(recs[6], []byte("recovered")) {
		t.Fatalf("post-repair replay = %d records", len(recs))
	}
}

func TestCorruptMiddleStopsAtCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	holdCold(l) // all three records in one segment
	for i := 0; i < 3; i++ {
		l.Append(bytes.Repeat([]byte{byte(i)}, 32)) //nolint:errcheck
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	data, _ := os.ReadFile(segs[0])
	data[headerSize+40] ^= 0xff        // flip a payload byte in record 2
	os.WriteFile(segs[0], data, 0o644) //nolint:errcheck

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Only record 1 survives; records 2 and 3 are discarded.
	if got := l2.NextLSN(); got != 2 {
		t.Fatalf("NextLSN = %d, want 2 after corruption", got)
	}
}

func TestTruncateBefore(t *testing.T) {
	l, _ := openTestLog(t, Options{SegmentSize: 128})
	payload := bytes.Repeat([]byte("z"), 64)
	var last LSN
	for i := 0; i < 12; i++ {
		var err error
		if last, err = l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := l.segmentCount()
	if before < 4 {
		t.Fatalf("segments before truncate = %d, want several", before)
	}
	if err := l.TruncateBefore(last); err != nil {
		t.Fatal(err)
	}
	after, _ := l.segmentCount()
	if after >= before {
		t.Fatalf("TruncateBefore removed nothing: %d -> %d", before, after)
	}
	// Remaining records still replay, starting somewhere ≤ last.
	count := 0
	l.Replay(1, func(LSN, []byte) error { count++; return nil }) //nolint:errcheck
	if count == 0 {
		t.Fatal("no records remain after truncation")
	}
}

func TestRecordTooBig(t *testing.T) {
	l, _ := openTestLog(t, Options{maxRecordSize: 10})
	if _, err := l.Append(bytes.Repeat([]byte("a"), 11)); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("err = %v, want ErrRecordTooBig", err)
	}
}

func TestClosedErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close: %v", err)
	}
	if err := l.Replay(1, func(LSN, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Replay after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l, _ := openTestLog(t, Options{})
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	recs := collect(t, l, 1)
	if len(recs) != workers*per {
		t.Fatalf("replayed %d, want %d", len(recs), workers*per)
	}
	// LSNs must be dense.
	for i := 1; i <= workers*per; i++ {
		if _, ok := recs[LSN(i)]; !ok {
			t.Fatalf("missing lsn %d", i)
		}
	}
}

func TestSyncEveryAppend(t *testing.T) {
	l, _ := openTestLog(t, Options{SyncEveryAppend: true})
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var written [][]byte
	f := func(rec []byte) bool {
		if rec == nil {
			rec = []byte{}
		}
		if _, err := l.Append(rec); err != nil {
			return false
		}
		written = append(written, append([]byte(nil), rec...))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	i := 0
	err = l.Replay(1, func(_ LSN, rec []byte) error {
		if !bytes.Equal(rec, written[i]) {
			return fmt.Errorf("record %d mismatch", i)
		}
		i++
		return nil
	})
	if err != nil || i != len(written) {
		t.Fatalf("replay: err=%v, replayed %d of %d", err, i, len(written))
	}
}

// BenchmarkAppend is one 4 KiB record per op, with and without the fsync
// before the ack, into a preallocated segment and into a cold one. Every 1024
// appends it checkpoints as the document store's flush does, so the prepared
// arm runs on recycled segments and neither arm fills the disk.
func BenchmarkAppend(b *testing.B) {
	rec := bytes.Repeat([]byte("x"), 4096)
	for _, durable := range []bool{false, true} {
		for _, layout := range layouts {
			name := layout
			if durable {
				name += "/fsync"
			}
			b.Run(name, func(b *testing.B) {
				l, err := Open(b.TempDir(), Options{SyncEveryAppend: durable})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				if layout == "cold" {
					holdCold(l)
				} else {
					if _, err := l.Append(rec); err != nil {
						b.Fatal(err)
					}
					l.preparer.Wait()
				}
				b.SetBytes(int64(len(rec)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lsn, err := l.Append(rec)
					if err != nil {
						b.Fatal(err)
					}
					if i%1024 == 1023 {
						l.TruncateBefore(lsn) //nolint:errcheck
					}
				}
				b.StopTimer()
				st := l.Stats()
				b.ReportMetric(float64(st.ColdAppends)/float64(st.Appends), "cold/op")
			})
		}
	}
}

// segmentCount reports how many segment files exist.
func (l *Log) segmentCount() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listSegments(l.dir)
	return len(segs), err
}
