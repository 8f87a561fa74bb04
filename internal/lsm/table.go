package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"mystore/internal/cache"
)

// SSTable file layout. An SSTable is an immutable sorted run of key/value
// entries (values are the docstore's length-prefixed BSON documents;
// tombstones record deletions that mask older tables until compaction):
//
//	file   := block* index bloom props footer
//	block  := entry* crc32            (≈ blockBytes of entries per block)
//	entry  := uvarint(klen) key flag  (flag 0: uvarint(vlen) val; flag 1: tombstone)
//	index  := idx* crc32              (idx = uvarint(klen) firstKey uvarint(off) uvarint(len))
//	bloom  := filterBytes k crc32
//	props  := count maxLSN minKey maxKey crc32
//	footer := indexOff indexLen bloomOff bloomLen propsOff propsLen crc32 magic
//
// All section lengths include their trailing crc32. The footer is fixed-size
// at the end of the file so a reader seeks straight to it. Every section is
// CRC-checked on load (index/bloom/props at open, data blocks on every read
// from disk), so a torn or bit-flipped table is detected, never served.

const (
	tableMagic  = 0x4c534d5431 // "LSMT1"
	footerSize  = 6*8 + 4 + 8
	tableSuffix = ".sst"
	tmpSuffix   = ".tmp"
	entryValue  = 0
	entryDelete = 1
	// DefaultBlockBytes is the target data-block payload size.
	DefaultBlockBytes = 4 << 10
)

// ErrTableCorrupt reports a failed CRC or structural check.
var ErrTableCorrupt = errors.New("lsm: corrupt sstable")

// errFlushAborted is returned by an aborted table write (engine crash
// simulation): the temp file is left torn on disk, exactly as kill -9
// mid-flush would.
var errFlushAborted = errors.New("lsm: flush aborted")

type idxEntry struct {
	firstKey []byte
	off      int64
	length   int64
}

// table is one open, immutable SSTable: the index, bloom filter and
// properties live in memory; data blocks are read on demand through the
// block cache. refs counts pins (the engine's current version plus any
// in-flight reads and iterators); once a compaction marks the table
// obsolete, the last unpin deletes the file.
type table struct {
	num    uint64
	path   string
	f      *os.File
	size   int64
	index  []idxEntry
	bloom  bloomFilter
	count  int
	bytes  int64 // data-section payload bytes, the level-size accounting unit
	maxLSN uint64
	minKey []byte
	maxKey []byte

	refs     atomic.Int32
	obsolete atomic.Bool
}

func tableName(num uint64) string { return fmt.Sprintf("%012d%s", num, tableSuffix) }

// ref pins the table against deletion.
func (t *table) ref() { t.refs.Add(1) }

// unref releases a pin; the last pin on an obsolete table removes its file.
func (t *table) unref() {
	if t.refs.Add(-1) == 0 && t.obsolete.Load() {
		t.f.Close()
		os.Remove(t.path)
	}
}

// markObsolete schedules the file for deletion once every pin is released.
func (t *table) markObsolete() {
	t.obsolete.Store(true)
	t.unref() // drop the version's own pin
}

// cacheKey identifies one block in the shared block cache. Keys are scoped
// by file number; file numbers are never reused within an engine directory.
func (t *table) cacheKey(off int64) string {
	return strconv.FormatUint(t.num, 36) + "@" + strconv.FormatInt(off, 36)
}

// block returns the decoded (CRC-stripped) data block at index position i,
// consulting the block cache first. Stats count hits/misses at the engine.
func (t *table) block(i int, bc *cache.Server, st *engineCounters) ([]byte, error) {
	ie := t.index[i]
	if bc != nil {
		if b, ok := bc.Get(t.cacheKey(ie.off)); ok {
			st.blockCacheHits.Add(1)
			return b, nil
		}
		st.blockCacheMisses.Add(1)
	}
	raw := make([]byte, ie.length)
	if _, err := t.f.ReadAt(raw, ie.off); err != nil {
		return nil, fmt.Errorf("lsm: read block: %w", err)
	}
	payload, err := checkCRC(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: table %d block @%d", ErrTableCorrupt, t.num, ie.off)
	}
	if bc != nil {
		bc.Set(t.cacheKey(ie.off), payload)
	}
	return payload, nil
}

// get searches the table for key. found=false with nil error means the key
// is not in this table (the caller continues to older tables).
func (t *table) get(key []byte, bc *cache.Server, st *engineCounters) (val []byte, tombstone, found bool, err error) {
	if bytes.Compare(key, t.minKey) < 0 || bytes.Compare(key, t.maxKey) > 0 {
		return nil, false, false, nil
	}
	if !t.bloom.mayContain(key) {
		st.bloomNegatives.Add(1)
		return nil, false, false, nil
	}
	i := t.blockFor(key)
	if i < 0 {
		return nil, false, false, nil
	}
	blk, err := t.block(i, bc, st)
	if err != nil {
		return nil, false, false, err
	}
	for pos := 0; pos < len(blk); {
		k, v, tomb, n, perr := parseEntry(blk[pos:])
		if perr != nil {
			return nil, false, false, fmt.Errorf("%w: table %d entry", ErrTableCorrupt, t.num)
		}
		pos += n
		switch bytes.Compare(k, key) {
		case 0:
			return v, tomb, true, nil
		case 1:
			return nil, false, false, nil // past it: not here
		}
	}
	return nil, false, false, nil
}

// blockFor returns the position of the last block whose first key is <= key,
// or -1 when key precedes the whole table.
func (t *table) blockFor(key []byte) int {
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.index[mid].firstKey, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// parseEntry decodes one entry, returning the consumed byte count.
func parseEntry(b []byte) (key, val []byte, tombstone bool, n int, err error) {
	key, n, ok := prefixed(b)
	if !ok || n >= len(b) {
		return nil, nil, false, 0, ErrTableCorrupt
	}
	flag := b[n]
	n++
	if flag == entryDelete {
		return key, nil, true, n, nil
	}
	if flag != entryValue {
		return nil, nil, false, 0, ErrTableCorrupt
	}
	val, vn, ok := prefixed(b[n:])
	if !ok {
		return nil, nil, false, 0, ErrTableCorrupt
	}
	return key, val, false, n + vn, nil
}

// prefixed splits a uvarint-length-prefixed field off the front of b and
// returns it with the bytes consumed. The length is compared as a uint64
// with what is left, so no varint wraps into a negative int.
func prefixed(b []byte) (field []byte, n int, ok bool) {
	l, ln := binary.Uvarint(b)
	if ln <= 0 || l > uint64(len(b)-ln) {
		return nil, 0, false
	}
	n = ln + int(l)
	return b[ln:n], n, true
}

// within reports whether length bytes at off fit in size bytes, without the
// wrap an off+length sum can make.
func within(off, length uint64, size int64) bool {
	return length <= uint64(size) && off <= uint64(size)-length
}

// checkCRC verifies a section's trailing crc32 and returns the payload.
func checkCRC(sec []byte) ([]byte, error) {
	if len(sec) < 4 {
		return nil, ErrTableCorrupt
	}
	payload := sec[:len(sec)-4]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sec[len(sec)-4:]) {
		return nil, ErrTableCorrupt
	}
	return payload, nil
}

func appendCRC(sec []byte) []byte {
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(sec))
	return append(sec, crc[:]...)
}

// openTable opens and validates an existing SSTable.
func openTable(dir string, num uint64) (*table, error) {
	path := filepath.Join(dir, tableName(num))
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	t := &table{num: num, path: path, f: f, size: st.Size()}
	if err := t.loadMeta(); err != nil {
		f.Close()
		return nil, fmt.Errorf("table %s: %w", tableName(num), err)
	}
	t.refs.Store(1) // the engine version's pin
	return t, nil
}

func (t *table) loadMeta() error {
	if t.size < footerSize {
		return ErrTableCorrupt
	}
	foot := make([]byte, footerSize)
	if _, err := t.f.ReadAt(foot, t.size-footerSize); err != nil {
		return err
	}
	if binary.LittleEndian.Uint64(foot[footerSize-8:]) != tableMagic {
		return fmt.Errorf("%w: bad magic", ErrTableCorrupt)
	}
	if crc32.ChecksumIEEE(foot[:48]) != binary.LittleEndian.Uint32(foot[48:52]) {
		return fmt.Errorf("%w: footer crc", ErrTableCorrupt)
	}
	read := func(off, length uint64) ([]byte, error) {
		if !within(off, length, t.size) {
			return nil, ErrTableCorrupt
		}
		sec := make([]byte, length)
		if _, err := t.f.ReadAt(sec, int64(off)); err != nil {
			return nil, err
		}
		return checkCRC(sec)
	}
	idx, err := read(binary.LittleEndian.Uint64(foot[0:]), binary.LittleEndian.Uint64(foot[8:]))
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	bloomSec, err := read(binary.LittleEndian.Uint64(foot[16:]), binary.LittleEndian.Uint64(foot[24:]))
	if err != nil {
		return fmt.Errorf("bloom: %w", err)
	}
	props, err := read(binary.LittleEndian.Uint64(foot[32:]), binary.LittleEndian.Uint64(foot[40:]))
	if err != nil {
		return fmt.Errorf("props: %w", err)
	}
	for pos := 0; pos < len(idx); {
		key, kn, ok := prefixed(idx[pos:])
		if !ok {
			return fmt.Errorf("%w: index entry", ErrTableCorrupt)
		}
		pos += kn
		off, on := binary.Uvarint(idx[pos:])
		if on <= 0 {
			return fmt.Errorf("%w: index offset", ErrTableCorrupt)
		}
		pos += on
		length, ln := binary.Uvarint(idx[pos:])
		if ln <= 0 || !within(off, length, t.size) {
			return fmt.Errorf("%w: index length", ErrTableCorrupt)
		}
		pos += ln
		t.index = append(t.index, idxEntry{firstKey: key, off: int64(off), length: int64(length)})
		t.bytes += int64(length)
	}
	t.bloom = parseBloom(bloomSec)
	if len(props) < 16 {
		return fmt.Errorf("%w: props", ErrTableCorrupt)
	}
	t.count = int(binary.LittleEndian.Uint64(props[0:]))
	t.maxLSN = binary.LittleEndian.Uint64(props[8:])
	pos := 16
	for _, dst := range []*[]byte{&t.minKey, &t.maxKey} {
		key, kn, ok := prefixed(props[pos:])
		if !ok {
			return fmt.Errorf("%w: props keys", ErrTableCorrupt)
		}
		*dst = key
		pos += kn
	}
	return nil
}

// scrub re-reads and CRC-verifies every data block (bypassing the cache).
// The chaos harness runs it after crash-recovery cycles: a loaded table must
// never contain a torn or corrupt block.
func (t *table) scrub() error {
	for _, ie := range t.index {
		raw := make([]byte, ie.length)
		if _, err := t.f.ReadAt(raw, ie.off); err != nil {
			return err
		}
		if _, err := checkCRC(raw); err != nil {
			return fmt.Errorf("%w: table %d block @%d", ErrTableCorrupt, t.num, ie.off)
		}
	}
	return nil
}

// tableWriter streams sorted entries into a new SSTable. Creation is
// crash-atomic: everything is written to a .tmp file, fsynced, renamed into
// place, and the directory fsynced — a crash at any point leaves either no
// table or a complete one, and recovery deletes stray .tmp files. abort is
// polled between blocks so a simulated kill -9 tears the temp file exactly
// as a real one would.
type tableWriter struct {
	dir        string
	num        uint64
	f          *os.File
	w          *bufio.Writer
	off        int64
	blockBuf   []byte
	blockFirst []byte
	blockBytes int
	index      []idxEntry
	hashes     []uint64
	bitsPerKey int
	count      int
	maxLSN     uint64
	minKey     []byte
	maxKey     []byte
	onBlock    func(payloadBytes int) // per-block hook (compaction byte counting)
	abort      func() bool            // crash simulation hook
}

// tableBufs recycles table writers' write buffers: every flush and
// compaction output takes one, and a fresh 1 MiB one each time was the
// largest single allocation on the write path. A pooled buffer stays
// resident between collections, so it is 64 KiB (16 blocks per write): at
// 1 MiB the pool cost more RSS than the garbage it saved.
var tableBufs = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

func newTableWriter(dir string, num uint64, blockBytes, bitsPerKey int) (*tableWriter, error) {
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	f, err := os.Create(filepath.Join(dir, tableName(num)+tmpSuffix))
	if err != nil {
		return nil, err
	}
	w := tableBufs.Get().(*bufio.Writer)
	w.Reset(f)
	return &tableWriter{
		dir: dir, num: num, f: f,
		w:          w,
		blockBytes: blockBytes,
		bitsPerKey: bitsPerKey,
	}, nil
}

// add appends one entry; keys must arrive in strictly ascending order.
func (tw *tableWriter) add(key, val []byte, tombstone bool) error {
	if tw.blockFirst == nil {
		tw.blockFirst = append([]byte(nil), key...)
	}
	var varint [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(varint[:], uint64(len(key)))
	tw.blockBuf = append(tw.blockBuf, varint[:n]...)
	tw.blockBuf = append(tw.blockBuf, key...)
	if tombstone {
		tw.blockBuf = append(tw.blockBuf, entryDelete)
	} else {
		tw.blockBuf = append(tw.blockBuf, entryValue)
		n = binary.PutUvarint(varint[:], uint64(len(val)))
		tw.blockBuf = append(tw.blockBuf, varint[:n]...)
		tw.blockBuf = append(tw.blockBuf, val...)
	}
	tw.hashes = append(tw.hashes, bloomHash(key))
	tw.count++
	if tw.minKey == nil {
		tw.minKey = append([]byte(nil), key...)
	}
	tw.maxKey = append(tw.maxKey[:0], key...)
	if len(tw.blockBuf) >= tw.blockBytes {
		return tw.flushBlock()
	}
	return nil
}

// observeLSN folds an input's WAL position into the table's high-water mark.
func (tw *tableWriter) observeLSN(lsn uint64) {
	if lsn > tw.maxLSN {
		tw.maxLSN = lsn
	}
}

func (tw *tableWriter) flushBlock() error {
	if len(tw.blockBuf) == 0 {
		return nil
	}
	if tw.abort != nil && tw.abort() {
		return errFlushAborted
	}
	sec := appendCRC(tw.blockBuf)
	if _, err := tw.w.Write(sec); err != nil {
		return err
	}
	tw.index = append(tw.index, idxEntry{firstKey: tw.blockFirst, off: tw.off, length: int64(len(sec))})
	tw.off += int64(len(sec))
	if tw.onBlock != nil {
		tw.onBlock(len(sec))
	}
	tw.blockBuf = tw.blockBuf[:0]
	tw.blockFirst = nil
	return nil
}

// finish seals the table: index, bloom, props, footer, fsync, rename,
// directory fsync — then opens it for reading. The caller discards the
// writer on error; abandon cleans up the temp file for non-crash errors.
func (tw *tableWriter) finish() (*table, error) {
	if err := tw.flushBlock(); err != nil {
		return nil, err
	}
	writeSection := func(payload []byte) (off, length uint64, err error) {
		sec := appendCRC(payload)
		if _, err := tw.w.Write(sec); err != nil {
			return 0, 0, err
		}
		off = uint64(tw.off)
		tw.off += int64(len(sec))
		return off, uint64(len(sec)), nil
	}
	var idxBuf []byte
	var varint [binary.MaxVarintLen64]byte
	for _, ie := range tw.index {
		n := binary.PutUvarint(varint[:], uint64(len(ie.firstKey)))
		idxBuf = append(idxBuf, varint[:n]...)
		idxBuf = append(idxBuf, ie.firstKey...)
		n = binary.PutUvarint(varint[:], uint64(ie.off))
		idxBuf = append(idxBuf, varint[:n]...)
		n = binary.PutUvarint(varint[:], uint64(ie.length))
		idxBuf = append(idxBuf, varint[:n]...)
	}
	idxOff, idxLen, err := writeSection(idxBuf)
	if err != nil {
		return nil, err
	}
	bloomOff, bloomLen, err := writeSection(buildBloom(tw.hashes, tw.bitsPerKey))
	if err != nil {
		return nil, err
	}
	props := make([]byte, 16)
	binary.LittleEndian.PutUint64(props[0:], uint64(tw.count))
	binary.LittleEndian.PutUint64(props[8:], tw.maxLSN)
	for _, k := range [][]byte{tw.minKey, tw.maxKey} {
		n := binary.PutUvarint(varint[:], uint64(len(k)))
		props = append(props, varint[:n]...)
		props = append(props, k...)
	}
	propsOff, propsLen, err := writeSection(props)
	if err != nil {
		return nil, err
	}
	foot := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(foot[0:], idxOff)
	binary.LittleEndian.PutUint64(foot[8:], idxLen)
	binary.LittleEndian.PutUint64(foot[16:], bloomOff)
	binary.LittleEndian.PutUint64(foot[24:], bloomLen)
	binary.LittleEndian.PutUint64(foot[32:], propsOff)
	binary.LittleEndian.PutUint64(foot[40:], propsLen)
	binary.LittleEndian.PutUint32(foot[48:], crc32.ChecksumIEEE(foot[:48]))
	binary.LittleEndian.PutUint64(foot[footerSize-8:], tableMagic)
	if _, err := tw.w.Write(foot); err != nil {
		return nil, err
	}
	if err := tw.w.Flush(); err != nil {
		return nil, err
	}
	tw.w.Reset(nil) // drop the file; an error above leaves the buffer to the GC
	tableBufs.Put(tw.w)
	tw.w = nil
	if err := tw.f.Sync(); err != nil {
		return nil, err
	}
	if err := tw.f.Close(); err != nil {
		return nil, err
	}
	tmp := filepath.Join(tw.dir, tableName(tw.num)+tmpSuffix)
	if err := os.Rename(tmp, filepath.Join(tw.dir, tableName(tw.num))); err != nil {
		return nil, err
	}
	if err := fsyncDir(tw.dir); err != nil {
		return nil, err
	}
	return openTable(tw.dir, tw.num)
}

// abandon discards a partially written table (non-crash error paths).
func (tw *tableWriter) abandon() {
	tw.f.Close()
	os.Remove(filepath.Join(tw.dir, tableName(tw.num)+tmpSuffix))
}

// fsyncDir makes a directory entry change (rename, remove) durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
