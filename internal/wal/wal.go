// Package wal implements the write-ahead log that gives the document store
// durable, crash-recoverable persistence. The log is a sequence of CRC32-
// checked records spread across fixed-size segment files; on open, a torn
// tail (a partially written final record from a crash) is detected and
// discarded, and everything before it replays.
//
// Record layout on disk:
//
//	magic   byte   (0xA6)
//	crc32   uint32 (little endian, over lsn (uint64, little endian) + length + payload)
//	length  uint32 (little endian)
//	payload length bytes
//
// Segment files are named wal-<firstLSN, 16 hex digits>.seg. LSNs are
// 1-based, dense, monotonically increasing record sequence numbers. A
// record's LSN is not stored: it follows from the file name and the record's
// position, and the checksum covers it.
//
// Segments are preallocated and recycled so that an append overwrites blocks
// that are already written and inside the file's size, and the fsync before
// an ack has only the record's own pages to flush (extending a file makes
// every fsync commit the filesystem journal too). A segment goes through
// four states:
//
//	prepare   a background goroutine zero-fills SegmentSize bytes into
//	          wal-spare.tmp and fsyncs it (only under SyncEveryAppend: a
//	          log that never syncs an append has no fsync to make cheap)
//	activate  rollSegment renames the spare to wal-<firstLSN>.seg and fsyncs
//	          the directory; appends are WriteAt the running offset
//	retire    TruncateBefore drops the segment once a checkpoint covers it
//	reuse     the first dropped full-size segment becomes the spare instead
//	          of being deleted, so the zero-fill is paid per log, not per
//	          segment
//
// A reused segment is full of last life's records, well-formed but for their
// LSN, which is why the checksum covers it. Until a spare exists appends go
// to a cold segment: an empty file that grows, at the old cost.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mystore/internal/metrics"
)

const (
	recordMagic    = 0xA6
	oldRecordMagic = 0xA5 // records whose checksum did not cover the LSN
	headerSize     = 1 + 4 + 4
	segmentSuffix  = ".seg"
	segmentPrefix  = "wal-"
	spareName      = "wal-spare.tmp"
	pageSize       = 4096
	maxKeptFrame   = 1 << 20 // a larger record's frame is not kept for the next append
)

var zeroPage [pageSize]byte

// LSN is a log sequence number: the 1-based index of a record in the log.
type LSN uint64

// Options configure a Log.
type Options struct {
	// SegmentSize is the byte size at which a new segment file is started.
	// Zero means 8 MiB.
	SegmentSize int64
	// SyncEveryAppend makes every append durable before it returns. The
	// experiments run with this off (matching MongoDB 1.6's default
	// non-durable writes); the crash-recovery tests and durable deployments
	// turn it on. With it on, concurrent appenders share fsyncs through
	// group commit (see WaitDurable).
	SyncEveryAppend bool
	// MaxRecordSize bounds one record. Zero means 32 MiB.
	MaxRecordSize int
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 8 << 20
	}
	if o.MaxRecordSize <= 0 {
		o.MaxRecordSize = 32 << 20
	}
	return o
}

// Errors returned by the log.
var (
	ErrClosed       = errors.New("wal: log is closed")
	ErrRecordTooBig = errors.New("wal: record exceeds MaxRecordSize")
	ErrCorrupt      = errors.New("wal: corrupt record")
)

// Log is an append-only segmented write-ahead log. It is safe for concurrent
// use.
type Log struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	file   *os.File // active segment
	size   int64    // offset of the next record in the active segment
	next   LSN      // LSN the next appended record will receive
	closed bool
	frame  []byte // LSN+header+payload of the record being appended, reused under mu

	// Segment lifecycle, guarded by mu. prepared: the active segment is a
	// full-size file of written blocks (a spare that was activated), not a
	// cold one that grows. spareReady: wal-spare.tmp is complete and synced.
	// preparing: the preparer owns wal-spare.tmp; it stays set after a failed
	// fill, so a log that cannot prepare stays cold instead of retrying on
	// every append.
	prepared   bool
	spareReady bool
	preparing  bool
	stop       chan struct{} // closed by Close/Abandon; stops the preparer
	preparer   sync.WaitGroup

	// Group-commit state. Lock order: mu may be taken with syncMu NOT held
	// by the same goroutine (a sync leader releases syncMu before touching
	// mu); syncMu may be taken while holding mu (markDurable from
	// rollSegment/Close). Never the reverse nesting.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedLSN LSN   // every record with lsn <= syncedLSN is on stable storage
	syncErr   error // a failed fsync poisons the log (its coverage is unknown)
	syncing   bool  // a leader is currently running fsync

	// Commit metrics, exposed via Stats: fsyncs-per-append and mean batch
	// size are the two numbers that show group commit working.
	appends     metrics.Counter
	fsyncs      metrics.Counter
	batches     metrics.Counter // fsyncs that covered >= 1 new record
	batchedRecs metrics.Counter // records made durable by those fsyncs
	maxBatch    int64           // largest single-fsync batch, guarded by syncMu

	// What the cheap fsync depends on: spares filled, segments recycled, and
	// appends that found neither.
	segsPrepared metrics.Counter
	segsReused   metrics.Counter
	coldAppends  metrics.Counter

	// Production distributions behind /metrics: how long each fsync took and
	// how many records it covered.
	fsyncDur  *metrics.BucketedHistogram
	batchSize *metrics.BucketedHistogram
}

// FsyncLatency exposes the per-fsync duration histogram for registry
// registration.
func (l *Log) FsyncLatency() *metrics.BucketedHistogram { return l.fsyncDur }

// BatchSizes exposes the records-per-group-fsync histogram for registry
// registration.
func (l *Log) BatchSizes() *metrics.BucketedHistogram { return l.batchSize }

// Open opens (creating if needed) the log in dir, scans existing segments,
// wipes whatever follows the last valid record, and positions the log for
// appending. A log written in the old record format fails with ErrCorrupt.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{
		dir:       dir,
		opts:      opts,
		next:      1,
		stop:      make(chan struct{}),
		fsyncDur:  metrics.NewBucketedHistogram(nil),
		batchSize: metrics.NewBucketedHistogram(metrics.DefaultSizeBounds()),
	}
	l.syncCond = sync.NewCond(&l.syncMu)

	// A spare left by the last process may be half-filled, and nothing is
	// lost with it.
	if err := os.Remove(filepath.Join(dir, spareName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("wal: discard spare: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.rollSegment(); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Count records in every segment; the last one is repaired and appended to.
	var validBytes int64
	for _, s := range segs {
		n, end, err := readSegment(filepath.Join(dir, s.name), s.first, 0, opts.MaxRecordSize, nil)
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", s.name, err)
		}
		l.next, validBytes = s.first+LSN(n), end
	}
	f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1].name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	fileSize, err := wipeTail(f, validBytes)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: repair torn tail: %w", err)
	}
	l.file = f
	l.size = validBytes
	l.prepared = fileSize == opts.SegmentSize
	l.syncedLSN = l.next - 1 // everything recovered from disk is durable
	return l, nil
}

// wipeTail zeroes f from the end of its last valid record to the end of the
// file, unless it is all zero already, and returns the file's size. Truncating
// there instead would give a prepared segment's blocks back. Leaving the bytes
// is not an option: a crash can persist record k+1 and tear record k, and once
// a new record k of the same length fills the gap the old k+1 reads as valid
// again — an unacked record resurrected, or an acked one's successor forged.
// The wipe is synced before the log accepts an append; a crash in the middle
// of it leaves a tail that the next Open finds non-zero and wipes again.
func wipeTail(f *os.File, from int64) (fileSize int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	page := make([]byte, pageSize)
	for off := from; off < st.Size(); {
		n, err := f.ReadAt(page, off)
		if n == 0 {
			return 0, err // ReadAt explains every short read
		}
		if !bytes.Equal(page[:n], zeroPage[:n]) {
			return st.Size(), writeZeros(f, from, st.Size())
		}
		off += int64(n)
	}
	return st.Size(), nil
}

// writeZeros overwrites [off, end) of f with zeros, one page per write, and
// syncs them. Larger writes make the kernel build large page-cache folios,
// and every record-sized write into one later dirties — and every fsync
// flushes — the whole folio.
func writeZeros(f *os.File, off, end int64) error {
	for off < end {
		n := min(pageSize-off%pageSize, end-off)
		if _, err := f.WriteAt(zeroPage[:n], off); err != nil {
			return err
		}
		off += n
	}
	return f.Sync()
}

type segmentInfo struct {
	name  string
	first LSN
}

func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
		first, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue // foreign file, ignore
		}
		segs = append(segs, segmentInfo{name: name, first: LSN(first)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// readSegment walks the segment at path, whose first record has LSN first,
// and returns how many valid records it holds and the offset just past the
// last one; fn, when not nil, gets every record with lsn >= from. A torn,
// corrupt, zero or stale record simply ends the walk. A segment that begins
// with the old format's magic is an error: read as empty, it would be wiped.
func readSegment(path string, first, from LSN, maxRecord int, fn func(LSN, []byte) error) (records int, validBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var off int64
	buf := make([]byte, 8+headerSize)
	lsnBytes, hdr := buf[:8], buf[8:]
	var payload []byte
	for lsn := first; ; lsn++ {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return records, off, nil // clean EOF or torn header: stop here
		}
		if off == 0 && hdr[0] == oldRecordMagic {
			return 0, 0, fmt.Errorf("%w: old record format (magic %#x)", ErrCorrupt, oldRecordMagic)
		}
		if hdr[0] != recordMagic {
			return records, off, nil
		}
		crc := binary.LittleEndian.Uint32(hdr[1:5])
		length := int(binary.LittleEndian.Uint32(hdr[5:9]))
		if length < 0 || length > maxRecord {
			return records, off, nil
		}
		if fn != nil || cap(payload) < length {
			payload = make([]byte, length) // fn may keep what it is given
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			return records, off, nil // torn payload
		}
		binary.LittleEndian.PutUint64(lsnBytes, uint64(lsn))
		if checksum(lsnBytes, hdr[5:9], payload) != crc {
			return records, off, nil // corrupt or stale record ends the log
		}
		if fn != nil && lsn >= from {
			if err := fn(lsn, payload); err != nil {
				return records, off, err
			}
		}
		records++
		off += int64(headerSize + length)
	}
}

// checksum covers the LSN (8 bytes, little endian) with the length and the
// payload, so that a record is valid only at the position in the log it was
// written for. Callers keep the LSN in the buffer their header is in: a local
// array here would be heap-allocated per record.
func checksum(lsn, length, payload []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, lsn)
	crc = crc32.Update(crc, crc32.IEEETable, length)
	return crc32.Update(crc, crc32.IEEETable, payload)
}

func segmentName(first LSN) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, uint64(first), segmentSuffix)
}

// rollSegment makes the outgoing segment durable and activates the next one:
// the spare when there is one, an empty cold file otherwise. The directory is
// synced before the first append, so no record is acked from a file whose
// name a crash could lose. Called with mu held.
func (l *Log) rollSegment() error {
	if l.file != nil {
		if err := l.file.Sync(); err != nil {
			return err
		}
		if err := l.file.Close(); err != nil {
			return err
		}
		l.markDurable(l.next - 1) // the outgoing segment is fully synced
	}
	path := filepath.Join(l.dir, segmentName(l.next))
	if l.spareReady {
		// Over an empty cold segment of the same name, when the spare came
		// before that segment's first record.
		if err := os.Rename(filepath.Join(l.dir, spareName), path); err != nil {
			return fmt.Errorf("wal: activate segment: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := fsyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: create segment: %w", err)
	}
	// A log that rolls out of a cold segment is one spare short of its steady
	// state (active + spare, refilled by TruncateBefore): fill the second now
	// instead of going cold again at the next roll.
	wasCold := l.file != nil && !l.prepared
	l.file, l.size = f, 0
	l.prepared, l.spareReady = l.spareReady, false
	if wasCold {
		l.startPreparer()
	}
	return nil
}

func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// startPreparer fills a spare in the background unless one exists or is being
// filled, or the log never syncs an append: a spare only makes the fsync
// behind an ack cheap. Called with mu held.
func (l *Log) startPreparer() {
	if l.spareReady || l.preparing || !l.opts.SyncEveryAppend {
		return
	}
	l.preparing = true
	l.preparer.Add(1)
	go func() {
		defer l.preparer.Done()
		path := filepath.Join(l.dir, spareName)
		err := l.fillSpare(path)
		l.mu.Lock()
		defer l.mu.Unlock()
		if err != nil || l.closed {
			os.Remove(path) // preparing stays set: no retry in this life
			return
		}
		l.preparing, l.spareReady = false, true
		l.segsPrepared.Inc()
	}()
}

// fillSpare writes the spare as background work: a chunk, its fsync, a pause.
// Synced per chunk because the file is growing: its unsynced pages ride the
// filesystem's next journal commit, which is what the fsync behind a
// concurrent append — on this log or any other on the disk — waits for; with
// one sync at the end the first puts after a boot took 10–30 ms. Paused
// because fills that are always runnable (five nodes in one process boot
// together) keep every P busy, and a request then waited ≈ 10 ms per network
// hop to be noticed. Measured in TestTracePropagationAcrossCluster.
func (l *Log) fillSpare(path string) error {
	const chunk, pause = 256 << 10, time.Millisecond
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for off := int64(0); off < l.opts.SegmentSize && err == nil; off += chunk {
		select {
		case <-l.stop:
			err = ErrClosed
		case <-time.After(pause):
			err = writeZeros(f, off, min(off+chunk, l.opts.SegmentSize))
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append writes one record and returns its LSN. With SyncEveryAppend it
// does not return until the record is on stable storage; concurrent
// appenders share fsyncs through the group-commit protocol (one leader
// syncs for the whole cohort).
func (l *Log) Append(rec []byte) (LSN, error) {
	lsn, err := l.AppendNoWait(rec)
	if err != nil {
		return 0, err
	}
	if err := l.WaitDurable(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendNoWait writes one record and returns its LSN without waiting for
// durability. Callers that must not hold their own serialization lock
// across an fsync (the docstore's write path) append with this inside the
// lock and call WaitDurable after releasing it, which is what lets many
// writers commit under one fsync.
func (l *Log) AppendNoWait(rec []byte) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(rec) > l.opts.MaxRecordSize {
		return 0, ErrRecordTooBig
	}
	// Roll when the record would not fit in what is left of the segment, and
	// out of a cold segment as soon as there is a spare to move into.
	need := int64(headerSize + len(rec))
	if (l.size > 0 && l.size+need > l.opts.SegmentSize) || (!l.prepared && l.spareReady) {
		if err := l.rollSegment(); err != nil {
			return 0, err
		}
	}
	if !l.prepared {
		l.coldAppends.Inc()
		l.startPreparer()
	}
	// The frame is built behind its LSN, which is checksummed and not written.
	buf := binary.LittleEndian.AppendUint64(l.frame[:0], uint64(l.next))
	buf = append(buf, recordMagic, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
	buf = append(buf, rec...)
	hdr := buf[8:]
	binary.LittleEndian.PutUint32(hdr[1:5], checksum(buf[:8], hdr[5:9], rec))
	if cap(buf) <= maxKeptFrame {
		l.frame = buf
	}
	if _, err := l.file.WriteAt(hdr, l.size); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.appends.Inc()
	lsn := l.next
	l.next++
	l.size += need
	return lsn, nil
}

// WaitDurable blocks until the record at lsn is on stable storage. Without
// SyncEveryAppend it is a no-op (the caller opted out of durability). This
// is group commit: the first waiter becomes the sync leader and at once
// issues one fsync covering every record appended so far — whatever
// accumulated while the previous fsync ran — and wakes everyone it covered,
// so N concurrent appenders cost ~1 fsync instead of N. The batch is
// self-clocking: an idle log gets per-append latency, a busy log big batches.
func (l *Log) WaitDurable(lsn LSN) error {
	if !l.opts.SyncEveryAppend {
		return nil
	}
	l.syncMu.Lock()
	for {
		if l.syncedLSN >= lsn {
			l.syncMu.Unlock()
			return nil
		}
		if l.syncErr != nil {
			err := l.syncErr
			l.syncMu.Unlock()
			return err
		}
		if !l.syncing {
			l.leaderSync()
			continue // re-check under syncMu (leaderSync re-acquired it)
		}
		l.syncCond.Wait()
	}
}

// leaderSync runs one group fsync. Called with syncMu held; returns with
// syncMu held. The leader releases syncMu while it touches the file so
// followers can enqueue, and — crucially — runs the fsync itself off the
// append lock, so writers keep appending while the flush is in flight and
// the next leader's cohort grows to cover them (the self-clocking batch).
func (l *Log) leaderSync() {
	l.syncing = true
	l.syncMu.Unlock()
	l.mu.Lock()
	f := l.file
	target := l.next - 1
	closed := l.closed
	l.mu.Unlock()

	var err error
	if closed {
		// Close() syncs before closing the file, so anything appended
		// before it is already durable; markDurable in Close covers those
		// waiters. Anyone left waiting raced Close and loses.
		err = ErrClosed
	} else {
		// fsync outside l.mu: concurrent appends may land past target and
		// be flushed early, which is harmless — syncedLSN only advances to
		// target, a lower bound on what this fsync covered.
		start := time.Now()
		err = f.Sync()
		if err == nil {
			l.fsyncDur.ObserveDuration(time.Since(start))
		}
	}

	l.syncMu.Lock()
	l.syncing = false
	if err != nil && target <= l.syncedLSN {
		// The fd was fsynced and closed under us by a segment roll or
		// Close; both mark their coverage durable first, so target is safe.
		err = nil
	} else if err == nil {
		l.fsyncs.Inc()
		if target > l.syncedLSN {
			batch := int64(target - l.syncedLSN)
			l.batches.Inc()
			l.batchedRecs.Add(batch)
			l.batchSize.Observe(batch)
			if batch > l.maxBatch {
				l.maxBatch = batch
			}
			l.syncedLSN = target
		}
	}
	if err != nil {
		if !errors.Is(err, ErrClosed) {
			err = fmt.Errorf("wal: sync: %w", err)
		}
		if l.syncErr == nil {
			l.syncErr = err
		}
	}
	l.syncCond.Broadcast()
}

// markDurable records that every LSN <= upto is on stable storage and wakes
// waiters. Callers hold l.mu (rollSegment, Close) or nothing (Sync).
func (l *Log) markDurable(upto LSN) {
	l.syncMu.Lock()
	if upto > l.syncedLSN {
		l.syncedLSN = upto
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	start := time.Now()
	err := l.file.Sync()
	if err == nil {
		l.fsyncDur.ObserveDuration(time.Since(start))
		l.fsyncs.Inc()
		l.markDurable(l.next - 1)
	}
	l.mu.Unlock()
	return err
}

// DurableLSN returns the highest LSN known to be on stable storage. Records
// above it are appended but a power loss may still take them.
func (l *Log) DurableLSN() LSN {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncedLSN
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Replay calls fn for every record with lsn ≥ from, in order. It opens its
// own read handles so it can run while the log continues appending, but the
// caller is responsible for not relying on records appended after the call
// begins being visible.
func (l *Log) Replay(from LSN, fn func(lsn LSN, rec []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.file.Sync(); err != nil {
		l.mu.Unlock()
		return err
	}
	dir, maxRecord := l.dir, l.opts.MaxRecordSize
	l.mu.Unlock()

	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if _, _, err := readSegment(filepath.Join(dir, s.name), s.first, from, maxRecord, fn); err != nil {
			return err
		}
	}
	return nil
}

// TruncateBefore drops whole segments all of whose records have LSN < upto.
// It is called after the owning store writes a snapshot covering those
// records. The active segment is never dropped. When the log has no spare, the
// first dropped segment that is a full-size file becomes it; the rest are
// deleted, so at most one spare exists.
func (l *Log) TruncateBefore(upto LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for i := 0; i < len(segs)-1; i++ {
		// A segment is removable when the next segment starts at or below
		// upto, meaning every record in this one is < upto.
		if segs[i+1].first > upto {
			break
		}
		path := filepath.Join(l.dir, segs[i].name)
		if l.keepAsSpare(path) {
			continue
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	return nil
}

// keepAsSpare recycles the dropped segment at path as the spare, if the log
// has none (ready or being filled) and the file is a full-size one. Called
// with mu held.
func (l *Log) keepAsSpare(path string) bool {
	if l.spareReady || l.preparing {
		return false
	}
	if st, err := os.Stat(path); err != nil || st.Size() != l.opts.SegmentSize {
		return false
	}
	if os.Rename(path, filepath.Join(l.dir, spareName)) != nil {
		return false // TruncateBefore deletes it instead
	}
	l.spareReady = true
	l.segsReused.Inc()
	return true
}

// SegmentCount reports how many segment files exist, for tests and stats.
func (l *Log) SegmentCount() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listSegments(l.dir)
	return len(segs), err
}

// Close syncs and closes the active segment and waits for the preparer to
// exit, so nothing writes into the directory after it returns. Further
// operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.stop)
	err := l.file.Sync()
	if err == nil {
		l.markDurable(l.next - 1) // close's fsync covers every appended record
	}
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	l.preparer.Wait()
	return err
}

// Abandon closes the log as an abrupt process death would: the active
// segment's file handle is dropped WITHOUT a final fsync, so any appended-
// but-unsynced tail is lost exactly as kill -9 would lose it. Durability
// waiters are released with an error instead of a durable ack. The chaos
// harness uses it to simulate hard crashes in-process.
func (l *Log) Abandon() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	close(l.stop)
	l.file.Close() // deliberately no Sync
	l.mu.Unlock()
	l.syncMu.Lock()
	if l.syncErr == nil {
		l.syncErr = ErrClosed
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	l.preparer.Wait()
}

// SyncStats snapshots the commit counters. FsyncsPerAppend =
// Fsyncs/Appends is the group-commit headline number; BatchedRecords /
// Batches gives the mean records per coalesced fsync.
type SyncStats struct {
	Appends        int64 // records appended
	Fsyncs         int64 // fsync syscalls issued
	Batches        int64 // group fsyncs that covered at least one record
	BatchedRecords int64 // records made durable by those group fsyncs
	MaxBatch       int64 // largest single-fsync cohort observed

	SegmentsPrepared int64 // spares zero-filled by the preparer
	SegmentsReused   int64 // dropped segments kept as the spare
	ColdAppends      int64 // appends into a segment that was not preallocated
}

// Stats returns a snapshot of the commit counters.
func (l *Log) Stats() SyncStats {
	l.syncMu.Lock()
	mb := l.maxBatch
	l.syncMu.Unlock()
	return SyncStats{
		Appends:        l.appends.Value(),
		Fsyncs:         l.fsyncs.Value(),
		Batches:        l.batches.Value(),
		BatchedRecords: l.batchedRecs.Value(),
		MaxBatch:       mb,

		SegmentsPrepared: l.segsPrepared.Value(),
		SegmentsReused:   l.segsReused.Value(),
		ColdAppends:      l.coldAppends.Value(),
	}
}
