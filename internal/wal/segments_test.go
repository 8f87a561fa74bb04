package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The segment lifecycle and the crash matrix on the preallocated layout. The
// tests pin the layout they need: holdCold keeps a log in growing files,
// enterPrepared walks it into a preallocated one.

var layouts = []string{"cold", "prepared"}

// holdCold keeps l from ever filling a spare, as a failed fill does.
func holdCold(l *Log) { setPreparing(l, true) }

func setPreparing(l *Log, v bool) {
	l.mu.Lock()
	l.preparing = v
	l.mu.Unlock()
}

// enterPrepared appends until the active segment is a preallocated one and
// returns what it appended. Call it with no appender running.
func enterPrepared(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var recs [][]byte
	for i := 0; ; i++ {
		l.mu.Lock()
		prepared := l.prepared
		l.mu.Unlock()
		if prepared {
			return recs
		}
		if i == 4 {
			t.Fatal("no prepared segment after a spare was filled")
		}
		rec := []byte(fmt.Sprintf("lead-in-%d", i))
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		l.preparer.Wait() // the append started the fill, or a spare exists
	}
}

// openLayout opens a fresh log in dir pinned to the layout and returns the
// records it took to get there.
func openLayout(t *testing.T, dir, layout string, opts Options) (*Log, [][]byte) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if layout == "cold" {
		holdCold(l)
		return l, nil
	}
	return l, enterPrepared(t, l)
}

func mustAppend(t *testing.T, l *Log, recs ...[]byte) {
	t.Helper()
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// replayAll returns every record of the log in order, checking LSNs are dense.
func replayAll(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	var want LSN
	err := l.Replay(0, func(lsn LSN, rec []byte) error {
		if want != 0 && lsn != want {
			return fmt.Errorf("lsn %d follows %d", lsn, want-1)
		}
		want = lsn + 1
		out = append(out, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

// reopenAndReplay opens dir, replays it, and closes it again.
func reopenAndReplay(t *testing.T, dir string, opts Options) [][]byte {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	return replayAll(t, l)
}

func sameRecords(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d = %q, want %q", what, i, got[i], want[i])
		}
	}
}

// lastSegment returns the path of the newest segment and its first LSN.
func lastSegment(t *testing.T, dir string) (string, LSN) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments of %s: %v (%v)", dir, segs, err)
	}
	last := segs[len(segs)-1]
	return filepath.Join(dir, last.name), last.first
}

// recordOffsets returns where each valid record of the segment starts, plus
// the offset past the last.
func recordOffsets(t *testing.T, path string, first LSN) []int64 {
	t.Helper()
	offs := []int64{0}
	_, _, err := readSegment(path, first, 0, 32<<20, func(_ LSN, rec []byte) error {
		offs = append(offs, offs[len(offs)-1]+int64(headerSize+len(rec)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return offs
}

func patchFile(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestTearInsideSegment: a crash mid-record leaves a torn header, a torn
// payload or a damaged byte in the middle of a segment, with a complete later
// record on disk beyond it. Open keeps exactly the records before the damage,
// and the later record never comes back — not at once, and not after a new
// record of the torn one's length has filled the gap (which is what the wipe
// in Open is for: with the bytes left in place the old successor's checksum,
// LSN included, is valid again).
func TestTearInsideSegment(t *testing.T) {
	tears := map[string]func(rec []byte){
		"torn header":  func(rec []byte) { clear(rec[3:]) },
		"torn payload": func(rec []byte) { clear(rec[headerSize+10:]) },
		"flipped byte": func(rec []byte) { rec[headerSize+7] ^= 0x40 },
	}
	for _, layout := range layouts {
		for name, tear := range tears {
			t.Run(layout+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				l, want := openLayout(t, dir, layout, Options{SyncEveryAppend: true})
				var recs [][]byte
				for i := 0; i < 5; i++ {
					recs = append(recs, []byte(fmt.Sprintf("record-%d-of-equal-length", i)))
				}
				mustAppend(t, l, recs...)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				seg, first := lastSegment(t, dir)
				offs := recordOffsets(t, seg, first)
				if len(offs) < 6 {
					t.Fatalf("active segment holds %d records, want the last 5", len(offs)-1)
				}
				offs = offs[len(offs)-6:]
				size := fileSize(t, seg)

				// Damage record 3 of 5; records 4 and 5 stay whole beyond it.
				torn := make([]byte, offs[3]-offs[2])
				f, _ := os.Open(seg)
				f.ReadAt(torn, offs[2]) //nolint:errcheck
				f.Close()
				tear(torn)
				patchFile(t, seg, offs[2], torn)

				want = append(want, recs[:2]...)
				l2, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				sameRecords(t, "after the tear", replayAll(t, l2), want)
				if got := fileSize(t, seg); got != size {
					t.Fatalf("repair changed the segment's size %d -> %d", size, got)
				}
				refill := []byte("record-X-of-equal-length")
				mustAppend(t, l2, refill)
				want = append(want, refill)
				sameRecords(t, "after refilling the gap", replayAll(t, l2), want)
				l2.Close()
				sameRecords(t, "after refilling the gap and reopening", reopenAndReplay(t, dir, Options{}), want)
			})
		}
	}
}

// recycle fills segments with equal-length records, checkpointing behind
// every one, until a segment that held nothing else has been dropped by
// TruncateBefore, kept as the spare, activated again and partly refilled. It
// returns the records it appended that are still in the log. Call it on a log
// that has its two full-size segments (enterPrepared, then preparer.Wait):
// a fresh one whose segments fill faster than a spare does never recycles.
func recycle(t *testing.T, l *Log, recLen int) [][]byte {
	t.Helper()
	var live [][]byte
	liveFrom := l.NextLSN()
	for i := 0; l.Stats().SegmentsReused == 0 || !staleRecordAtEnd(l, recLen); i++ {
		if i > 10_000 {
			t.Fatal("no segment was ever reused")
		}
		rec := bytes.Repeat([]byte{byte('a' + i%26)}, recLen)
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, rec)
		// Checkpoint everything but the newest record, as a flush would.
		if err := l.TruncateBefore(lsn); err != nil {
			t.Fatal(err)
		}
		if segs, _ := listSegments(l.dir); segs[0].first > liveFrom {
			live = live[segs[0].first-liveFrom:]
			liveFrom = segs[0].first
		}
	}
	return live
}

// staleRecordAtEnd: the active segment is a recycled one, and a record of its
// last life (recLen long) begins exactly where this life's records end.
func staleRecordAtEnd(l *Log, recLen int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.prepared || l.size == 0 {
		return false
	}
	hdr := make([]byte, headerSize)
	l.file.ReadAt(hdr, l.size) //nolint:errcheck
	return hdr[0] == recordMagic && int(binary.LittleEndian.Uint32(hdr[5:9])) == recLen
}

// TestReusedSegmentStaleRecords: a recycled segment is full of last life's
// records, each well-formed. With equal-length records one of them starts
// exactly where the new life ends; only its LSN, which the checksum covers,
// tells it from a record of this life. Neither a live Replay nor a reopen
// may return it.
func TestReusedSegmentStaleRecords(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 4096, SyncEveryAppend: true}
	l, _ := openLayout(t, dir, "prepared", opts)
	l.preparer.Wait() // the second spare
	live := recycle(t, l, 100)
	l.mu.Lock()
	end, seg := l.size, l.file.Name()
	l.mu.Unlock()
	sameRecords(t, "live replay", replayAll(t, l), live)
	l.Abandon()

	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	sameRecords(t, "replay after reopen", replayAll(t, l2), live)
	// Open wiped the stale tail, and kept the preallocation.
	tail := make([]byte, opts.SegmentSize-end)
	f, _ := os.Open(seg)
	f.ReadAt(tail, end) //nolint:errcheck
	f.Close()
	if !bytes.Equal(tail, make([]byte, len(tail))) || fileSize(t, seg) != opts.SegmentSize {
		t.Fatalf("reopen left stale bytes past offset %d, or resized the segment (%d bytes)", end, fileSize(t, seg))
	}
}

// TestTruncateBeforeLeavesAtMostOneSpare: of several dropped full-size
// segments one becomes the spare and the rest are deleted; a second call
// finds the spare in place and deletes.
func TestTruncateBeforeLeavesAtMostOneSpare(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 4096, SyncEveryAppend: true}
	l, _ := openLayout(t, dir, "prepared", opts)
	defer l.Close()
	l.preparer.Wait() // the second spare
	rec := make([]byte, 1000)
	for round := 0; round < 2; round++ {
		// Through the prepared segment, the spare after it, and into a cold one:
		// two full-size segments and a short one behind the active segment.
		holdCold(l)
		before, _ := l.SegmentCount()
		for n := before; n < before+2; n, _ = l.SegmentCount() {
			mustAppend(t, l, rec)
		}
		setPreparing(l, false)
		if err := l.TruncateBefore(l.NextLSN() - 1); err != nil {
			t.Fatal(err)
		}
		entries, _ := os.ReadDir(dir)
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if n, _ := l.SegmentCount(); n != 1 || len(names) != 2 || names[1] != spareName {
			t.Fatalf("round %d: directory holds %v, want the active segment and one spare", round, names)
		}
		if got := l.Stats().SegmentsReused; got != int64(round+1) {
			t.Fatalf("round %d: SegmentsReused = %d", round, got)
		}
	}
}

// TestOpenDiscardsLeftoverSpare: a crash mid-prepare leaves a half-filled
// wal-spare.tmp; Open removes it and the log carries on.
func TestOpenDiscardsLeftoverSpare(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLayout(t, dir, "cold", Options{})
	mustAppend(t, l, []byte("one"))
	l.Close()
	spare := filepath.Join(dir, spareName)
	if err := os.WriteFile(spare, bytes.Repeat([]byte{recordMagic}, 12345), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := os.Stat(spare); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("leftover spare survived Open (stat: %v)", err)
	}
	mustAppend(t, l2, []byte("two"))
	sameRecords(t, "replay", replayAll(t, l2), [][]byte{[]byte("one"), []byte("two")})
}

// TestCrashDuringRoll: rollSegment syncs the outgoing segment, renames the
// spare into place, syncs the directory, and only then takes an append. A
// crash before the directory sync leaves either the spare still under its own
// name or the new segment without a record in it — zeros, or a recycled
// segment's stale records. Every case opens to the same log.
func TestCrashDuringRoll(t *testing.T) {
	stale := bytes.Repeat([]byte("x"), 50)
	cases := map[string]func(t *testing.T, dir string, next LSN){
		"rename lost": func(t *testing.T, dir string, _ LSN) {
			os.WriteFile(filepath.Join(dir, spareName), make([]byte, 4096), 0o644) //nolint:errcheck
		},
		"rename kept, zero-filled spare": func(t *testing.T, dir string, next LSN) {
			os.WriteFile(filepath.Join(dir, segmentName(next)), make([]byte, 4096), 0o644) //nolint:errcheck
		},
		"rename kept, recycled spare": func(t *testing.T, dir string, next LSN) {
			// A segment that once began at LSN 1, full of records valid there.
			var seg []byte
			for lsn := LSN(1); len(seg)+headerSize+len(stale) <= 4096; lsn++ {
				seg = append(seg, frame(lsn, stale)...)
			}
			seg = append(seg, make([]byte, 4096-len(seg))...)
			os.WriteFile(filepath.Join(dir, segmentName(next)), seg, 0o644) //nolint:errcheck
		},
	}
	for name, crash := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{SegmentSize: 4096}
			l, _ := openLayout(t, dir, "cold", opts)
			want := [][]byte{stale, stale, stale}
			mustAppend(t, l, want...)
			next := l.NextLSN()
			l.Close()
			crash(t, dir, next)

			l2, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := l2.NextLSN(); got != next {
				t.Fatalf("NextLSN = %d, want %d", got, next)
			}
			mustAppend(t, l2, []byte("after"))
			want = append(want, []byte("after"))
			sameRecords(t, "replay", replayAll(t, l2), want)
			l2.Close()
			sameRecords(t, "replay after reopen", reopenAndReplay(t, dir, opts), want)
		})
	}
}

// frame builds the on-disk bytes of one record at lsn, independently of
// AppendNoWait: the tests' and the fuzzer's reference for the format.
func frame(lsn LSN, rec []byte) []byte {
	body := binary.LittleEndian.AppendUint64(nil, uint64(lsn))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(rec)))
	body = append(body, rec...)
	out := []byte{recordMagic}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body[8:]...)
}

// TestFrameMatchesAppend pins the record format: magic, CRC over
// LSN‖length‖payload, length, payload.
func TestFrameMatchesAppend(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLayout(t, dir, "cold", Options{})
	recs := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{0xA6}, 300)}
	mustAppend(t, l, recs...)
	l.Close()
	var want []byte
	for i, rec := range recs {
		want = append(want, frame(LSN(i+1), rec)...)
	}
	seg, _ := lastSegment(t, dir)
	got, _ := os.ReadFile(seg)
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes\n% x\nwant\n% x", got, want)
	}
}

// TestOldFormatFailsOpen: a log whose checksums do not cover the LSN (magic
// 0xA5) must not open as an empty log — Open would wipe it.
func TestOldFormatFailsOpen(t *testing.T) {
	dir := t.TempDir()
	body := binary.LittleEndian.AppendUint32(nil, 3)
	body = append(body, "old"...)
	seg := []byte{oldRecordMagic}
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(body))
	seg = append(seg, body...)
	path := filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over an old-format log: %v, want ErrCorrupt", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, seg) {
		t.Fatal("the refused log was modified")
	}
}

// TestReopenKeepsPreallocation: a cleanly closed log reopens into the same
// preallocated segment — not truncated to its records — and appends where
// they end.
func TestReopenKeepsPreallocation(t *testing.T) {
	dir := t.TempDir()
	l, want := openLayout(t, dir, "prepared", Options{SyncEveryAppend: true})
	mustAppend(t, l, []byte("before"))
	l.Close()
	seg, first := lastSegment(t, dir)
	if got := fileSize(t, seg); got != 8<<20 {
		t.Fatalf("active segment is %d bytes, want a full 8 MiB", got)
	}
	offs := recordOffsets(t, seg, first)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	mustAppend(t, l2, []byte("after"))
	if got := l2.Stats().ColdAppends; got != 0 {
		t.Fatalf("%d cold appends after reopening a prepared segment", got)
	}
	if again, _ := lastSegment(t, dir); again != seg || fileSize(t, seg) != 8<<20 {
		t.Fatalf("reopen moved off %s or resized it (%d bytes)", seg, fileSize(t, seg))
	}
	if got := recordOffsets(t, seg, first); len(got) != len(offs)+1 || got[len(offs)-1] != offs[len(offs)-1] {
		t.Fatalf("record offsets %v before, %v after reopen+append: want one more, where the last ended", offs, got)
	}
	sameRecords(t, "replay", replayAll(t, l2), append(want, []byte("before"), []byte("after")))
}

// TestCloseJoinsPreparer: Close and Abandon return only once the preparer is
// gone, so a caller may remove the directory at once (t.TempDir does). The
// segment is large enough that the fill cannot have finished.
func TestCloseJoinsPreparer(t *testing.T) {
	for name, shut := range map[string]func(*Log){
		"Close":   func(l *Log) { l.Close() },
		"Abandon": (*Log).Abandon,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{SegmentSize: 1 << 30, SyncEveryAppend: true})
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, l, []byte("x")) // starts the fill
			shut(l)
			for i := 0; i < 2; i++ {
				entries, _ := os.ReadDir(dir)
				if len(entries) != 1 || entries[0].Name() != segmentName(1) {
					t.Fatalf("directory after %s: %v, want the one segment", name, entries)
				}
				time.Sleep(20 * time.Millisecond) // a fill still running would show
			}
			if got := l.Stats().SegmentsPrepared; got != 0 {
				t.Fatalf("SegmentsPrepared = %d for a fill that was cut short", got)
			}
		})
	}
}

// TestRecordThatDoesNotFitRolls: a prepared segment is never grown; the
// record that would overrun it opens the next one.
func TestRecordThatDoesNotFitRolls(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 4096, SyncEveryAppend: true}
	l, want := openLayout(t, dir, "prepared", opts)
	defer l.Close()
	holdCold(l)
	seg, first := lastSegment(t, dir)
	held := len(recordOffsets(t, seg, first)) - 1
	big, bigger := make([]byte, 3000), make([]byte, 2000)
	mustAppend(t, l, big, bigger)
	if got := len(recordOffsets(t, seg, first)) - 1; got != held+1 {
		t.Fatalf("segment went from %d to %d records, want one more", held, got)
	}
	if got := fileSize(t, seg); got != opts.SegmentSize {
		t.Fatalf("prepared segment grew to %d bytes", got)
	}
	if next, nextFirst := lastSegment(t, dir); next == seg || nextFirst != first+LSN(held)+1 {
		t.Fatalf("second record went to %s (first LSN %d)", next, nextFirst)
	}
	sameRecords(t, "replay", replayAll(t, l), append(want, big, bigger))
}

// TestLifecycleCounters: a log that appends fills one spare, rolls into it,
// fills the second, and from then on lives on recycled segments: the
// prepared count stops at two and cold appends stop with the first roll.
func TestLifecycleCounters(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 4096, SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.SegmentsPrepared != 0 || st.ColdAppends != 0 {
		t.Fatalf("a log that never appended prepared %d segments", st.SegmentsPrepared)
	}
	enterPrepared(t, l)
	l.preparer.Wait() // the second spare, started by the roll out of the cold segment
	cold := l.Stats().ColdAppends
	if cold == 0 {
		t.Fatal("the first append was not counted cold")
	}
	recycle(t, l, 100)
	for i := 0; i < 200; i++ { // a few more segments' worth
		lsn, err := l.Append(make([]byte, 100))
		if err != nil {
			t.Fatal(err)
		}
		l.TruncateBefore(lsn) //nolint:errcheck
	}
	st := l.Stats()
	if st.SegmentsPrepared != 2 || st.ColdAppends != cold || st.SegmentsReused < 3 {
		t.Fatalf("prepared=%d (want 2) cold=%d (want %d) reused=%d (want several)",
			st.SegmentsPrepared, st.ColdAppends, cold, st.SegmentsReused)
	}
}

// TestUnsyncedLogPreparesNoSpare: a log that never syncs an append has no
// fsync for a preallocated segment to make cheap, so it never fills a spare,
// however many segments it rolls through.
func TestUnsyncedLogPreparesNoSpare(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 100; i++ {
		mustAppend(t, l, make([]byte, 300))
		l.preparer.Wait()
		if _, err := os.Stat(filepath.Join(dir, spareName)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("append %d: %s exists (stat: %v)", i, spareName, err)
		}
	}
	if n, _ := l.SegmentCount(); n < 5 {
		t.Fatalf("the log rolled into %d segments, want several", n)
	}
	if got := l.Stats().SegmentsPrepared; got != 0 {
		t.Fatalf("SegmentsPrepared = %d", got)
	}
}
