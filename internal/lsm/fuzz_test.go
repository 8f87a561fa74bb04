package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// restampTable rewrites, in place, the crc32 of every block b's index names,
// of the index, bloom and props sections its footer names, and the footer's
// own crc and magic, so that a change to their contents reaches the parsers
// instead of stopping at a checksum. Whatever does not fit in b is left.
func restampTable(b []byte) {
	if len(b) < footerSize {
		return
	}
	foot := b[len(b)-footerSize:]
	stamp := func(off, n uint64) {
		if n >= 4 && within(off, n, int64(len(b))) {
			sec := b[off : off+n]
			binary.LittleEndian.PutUint32(sec[n-4:], crc32.ChecksumIEEE(sec[:n-4]))
		}
	}
	if off, n := binary.LittleEndian.Uint64(foot[0:]), binary.LittleEndian.Uint64(foot[8:]); n >= 4 && within(off, n, int64(len(b))) {
		idx := b[off : off+n-4]
		for pos := 0; pos < len(idx); {
			_, kn, ok := prefixed(idx[pos:])
			if !ok {
				break
			}
			pos += kn
			boff, on := binary.Uvarint(idx[pos:])
			if on <= 0 {
				break
			}
			pos += on
			blen, ln := binary.Uvarint(idx[pos:])
			if ln <= 0 {
				break
			}
			pos += ln
			stamp(boff, blen)
		}
	}
	for i := 0; i < 3; i++ {
		stamp(binary.LittleEndian.Uint64(foot[16*i:]), binary.LittleEndian.Uint64(foot[16*i+8:]))
	}
	binary.LittleEndian.PutUint32(foot[48:], crc32.ChecksumIEEE(foot[:48]))
	binary.LittleEndian.PutUint64(foot[footerSize-8:], tableMagic)
}

// craftTable lays out a table file from hand-made sections: one data block
// at offset 0, then the index, an empty bloom filter and the props, each
// followed by its crc32, then the footer. patch, when set, edits the footer
// before the checksums are stamped.
func craftTable(block, index, props []byte, patch func(foot []byte)) []byte {
	b := append(append([]byte(nil), block...), 0, 0, 0, 0)
	foot := make([]byte, footerSize)
	for i, sec := range [][]byte{index, nil, props} {
		binary.LittleEndian.PutUint64(foot[16*i:], uint64(len(b)))
		binary.LittleEndian.PutUint64(foot[16*i+8:], uint64(len(sec)+4))
		b = append(append(b, sec...), 0, 0, 0, 0)
	}
	if patch != nil {
		patch(foot)
	}
	b = append(b, foot...)
	restampTable(b)
	return b
}

// probeTable opens the table file b and reads it every way a store does:
// scrub, a full iteration and gets of its bounds and first keys. It returns
// the first error; a panic fails the caller.
func probeTable(t *testing.T, b []byte) error {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tableName(1)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := openTable(dir, 1)
	if err != nil {
		return err
	}
	defer tbl.f.Close()
	errs := []error{tbl.scrub()}
	var st engineCounters
	it := newTableIter(tbl, nil, nil, nil, &st)
	for it.next() {
	}
	errs = append(errs, it.err)
	keys := [][]byte{tbl.minKey, tbl.maxKey, []byte("k")}
	for i := 0; i < len(tbl.index) && i < 4; i++ {
		keys = append(keys, tbl.index[i].firstKey)
	}
	for _, k := range keys {
		_, _, _, err := tbl.get(k, nil, &st)
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// hugeVarint is a length no table can hold: as an int it is negative.
const hugeVarint = uint64(1) << 63

// hugeKeyBlock is a data block whose one entry's key length is hugeVarint.
func hugeKeyBlock() []byte {
	return append(binary.AppendUvarint(nil, hugeVarint), 'k', entryValue, 1, 'v')
}

// TestMalformedTableErrs: every length in a table is checked against the
// bytes left before it is used, so CRC-valid tables whose lengths cannot
// fit are refused with ErrTableCorrupt, at open or at the read that reaches
// them, never with a panic.
func TestMalformedTableErrs(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	block := cat(uv(1), []byte("k"), []byte{entryValue}, uv(1), []byte("v"))
	index := func(blockLen uint64) []byte { return cat(uv(1), []byte("k"), uv(0), uv(blockLen)) }
	props := cat(make([]byte, 16), uv(1), []byte("k"), uv(1), []byte("k"))
	for _, tc := range []struct {
		name                string
		block, index, props []byte
		patch               func(foot []byte)
	}{
		{name: "entry key length", block: hugeKeyBlock()},
		{name: "entry value length", block: cat(uv(1), []byte("k"), []byte{entryValue}, uv(hugeVarint), []byte("v"))},
		{name: "index key length", index: cat(uv(hugeVarint), []byte("k"), uv(0), uv(uint64(len(block)+4)))},
		{name: "index block length", index: index(1 << 62)},
		{name: "props key length", props: cat(make([]byte, 16), uv(hugeVarint), []byte("k"))},
		{name: "section length wraps", patch: func(foot []byte) {
			off := binary.LittleEndian.Uint64(foot[0:])
			binary.LittleEndian.PutUint64(foot[8:], -off+8) // off + length == 8
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.block == nil {
				tc.block = block
			}
			if tc.index == nil {
				tc.index = index(uint64(len(tc.block) + 4))
			}
			if tc.props == nil {
				tc.props = props
			}
			if err := probeTable(t, craftTable(tc.block, tc.index, tc.props, tc.patch)); !errors.Is(err, ErrTableCorrupt) {
				t.Fatalf("err = %v, want ErrTableCorrupt", err)
			}
		})
	}
	if err := probeTable(t, craftTable(block, index(uint64(len(block)+4)), props, nil)); err != nil {
		t.Fatalf("the well-formed crafted table: %v", err)
	}
}

// FuzzOpenTable feeds the SSTable readers arbitrary table files: the footer,
// the index, bloom and props sections, and the data blocks. The harness
// re-stamps each section's checksum first, so mutations reach the parsers;
// opening, scrubbing, iterating and getting must each return an error or a
// value, never panic. Seed corpus: testdata/fuzz/FuzzOpenTable (a table from
// tableWriter, the same table truncated, and a block with a huge key
// length).
func FuzzOpenTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		b = bytes.Clone(b) // the engine's input must not be modified
		restampTable(b)
		probeTable(t, b) //nolint:errcheck
	})
}
