package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// wellFormedPrefix is the fuzzer's oracle: the records a segment whose first
// LSN is first holds before its first ill-formed one, read straight off the
// format (see frame) with none of readSegment's code.
func wellFormedPrefix(data []byte, first LSN, maxRecord int) [][]byte {
	var out [][]byte
	for lsn := first; len(data) >= headerSize && data[0] == recordMagic; lsn++ {
		n := int(binary.LittleEndian.Uint32(data[5:9]))
		if n > maxRecord || headerSize+n > len(data) {
			break
		}
		rec := data[headerSize : headerSize+n]
		if !bytes.Equal(frame(lsn, rec), data[:headerSize+n]) {
			break
		}
		out = append(out, rec)
		data = data[headerSize+n:]
	}
	return out
}

// FuzzOpenSegment hands Open arbitrary bytes as the newest segment, which is
// what a crash (or a recycled segment, or a bad disk) can leave there. Open
// must not panic; it replays exactly the well-formed prefix; and once one
// record is appended, a reopen replays that prefix, the record, and nothing
// that lay beyond.
func FuzzOpenSegment(f *testing.F) {
	const first = LSN(7)
	var good []byte
	var starts []int
	for i, rec := range [][]byte{[]byte("one"), {}, []byte("two"), bytes.Repeat([]byte("three"), 40), []byte("four")} {
		starts = append(starts, len(good))
		good = append(good, frame(first+LSN(i), rec)...)
	}
	flipped := append([]byte(nil), good...)
	flipped[starts[2]+headerSize+1] ^= 1 // "two"; the records after it stay valid
	stale := frame(first-3, []byte("last life's record, valid three LSNs ago"))
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), make([]byte, 512)...)) // preallocated
	f.Add(good[:len(good)-2])                                         // torn payload
	f.Add(good[:starts[2]+4])                                         // torn header
	f.Add(flipped)
	f.Add(append(append([]byte(nil), good[:starts[2]]...), stale...)) // recycled segment's tail
	f.Add(append(make([]byte, 64), good...))                          // zeros first
	f.Add([]byte{oldRecordMagic, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		opts := Options{MaxRecordSize: 1 << 12}
		if err := os.WriteFile(filepath.Join(dir, segmentName(first)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, opts)
		if err != nil {
			if len(data) >= headerSize && data[0] == oldRecordMagic && errors.Is(err, ErrCorrupt) {
				return
			}
			t.Fatalf("Open: %v", err)
		}
		holdCold(l) // no background fill per input
		want := wellFormedPrefix(data, first, opts.MaxRecordSize)
		sameRecords(t, "replay", replayAll(t, l), want)
		if got := l.NextLSN(); got != first+LSN(len(want)) {
			t.Fatalf("NextLSN = %d after %d records from %d", got, len(want), first)
		}
		// As long as the record the flipped seed damages, so that what
		// follows it on disk lines up behind x again.
		x := []byte("new")
		mustAppend(t, l, x)
		l.Close()
		sameRecords(t, "replay after append and reopen", reopenAndReplay(t, dir, opts), append(want, x))
	})
}
