// Package lsm implements the log-structured storage engine under the
// document store: a mutable memtable absorbing writes, immutable memtables
// queued for flush, and leveled immutable SSTables with per-table bloom
// filters and a shared sharded block cache. The engine owns no log of its
// own — the docstore's WAL is the recovery log — but it tracks the highest
// WAL LSN each flushed table covers and exposes a checkpoint (the first LSN
// not yet durable in tables), so the owner can truncate the WAL after every
// flush and a restart replays only the short unflushed tail instead of the
// full history (the Taurus log/page separation).
//
// Reads consult memtable → immutable memtables (newest first) → L0 tables
// (newest first) → L1..Ln (one candidate table per level), with bloom
// filters short-circuiting tables that cannot hold the key. Background
// compaction merges runs down the levels.
package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"mystore/internal/cache"
)

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("lsm: engine is closed")

// Tuning holds the engine's performance knobs; the zero value takes
// defaults sized for tests and single-node deployments.
type Tuning struct {
	// MemtableBytes rotates the mutable memtable to the flush queue once its
	// payload crosses this budget. Default 4 MiB.
	MemtableBytes int64
	// BlockCacheBytes bounds the shared block cache. Default 32 MiB.
	BlockCacheBytes int64

	// The table shape. Production runs the defaults; tests shrink it so
	// that small workloads still span blocks, levels and split compaction
	// output.
	//
	// BlockBytes is the SSTable data-block target size. Default 4 KiB.
	BlockBytes int
	// LevelBaseBytes is the L1 size limit; each deeper level is levelFanout
	// times larger. Default 8 MiB.
	LevelBaseBytes int64
	// TargetFileBytes splits compaction output runs into tables of roughly
	// this size. Default 2 MiB.
	TargetFileBytes int64
}

const (
	// l0CompactTrigger is the L0 table count that starts an L0→L1
	// compaction.
	l0CompactTrigger = 4
	// maxImmutable is the flush-queue depth at which writers stall (the
	// write-stall backpressure every LSM needs so an overrun flusher cannot
	// accumulate unbounded frozen memtables).
	maxImmutable = 4
)

func (t Tuning) withDefaults() Tuning {
	if t.MemtableBytes <= 0 {
		t.MemtableBytes = 4 << 20
	}
	if t.BlockBytes <= 0 {
		t.BlockBytes = DefaultBlockBytes
	}
	if t.BlockCacheBytes <= 0 {
		t.BlockCacheBytes = 32 << 20
	}
	if t.LevelBaseBytes <= 0 {
		t.LevelBaseBytes = 8 << 20
	}
	if t.TargetFileBytes <= 0 {
		t.TargetFileBytes = 2 << 20
	}
	return t
}

// Options configure an Engine.
type Options struct {
	// Dir is the directory holding SSTables and the manifest. Required.
	Dir string
	Tuning
	// LogDurable, when non-nil, is invoked before a flush's manifest commit
	// with the highest LSN the flushed memtable holds, and must return only
	// once the owner's log is durable through it. A manifest naming a
	// checkpoint above the log's durable point would, after a power loss, let
	// the reopened log hand out LSNs below the checkpoint again — records the
	// replay after that skips.
	LogDurable func(lsn uint64) error
	// Checkpoint, when non-nil, is invoked after each flush's manifest
	// commit with the new checkpoint LSN (the first LSN not yet durable in
	// SSTables). The docstore wires it to WAL truncation.
	Checkpoint func(lsn uint64)
}

// engineCounters are the engine's atomic stats, shared with table readers.
type engineCounters struct {
	flushes          atomic.Int64
	flushBytes       atomic.Int64
	compactions      atomic.Int64
	compactBytesIn   atomic.Int64
	compactBytesOut  atomic.Int64
	bloomNegatives   atomic.Int64
	blockCacheHits   atomic.Int64
	blockCacheMisses atomic.Int64
}

// Engine is one log-structured store instance. Writers must be externally
// serialized (the docstore's writeMu); reads and scans are safe for
// concurrent use with the single writer and with background flush and
// compaction.
type Engine struct {
	opts   Options
	bcache *cache.Server

	// mu guards the version fields below. Writers hold it exclusively only
	// for the in-memory memtable insert; readers snapshot the version (and
	// pin tables) under the read lock and do all disk I/O outside it.
	mu         sync.Mutex
	cond       *sync.Cond // imm-queue backpressure + flush completion
	mem        *memtable
	imm        []*memtable // oldest first
	levels     [][]*table  // levels[0] newest-first; deeper levels key-ordered
	nextFile   uint64
	checkpoint uint64
	closed     bool
	flushErr   error // sticky: a failed flush poisons the engine

	// Under mu, frozen counts the memtables rotated into imm and flushed
	// those whose flush has completed with its checkpoint delivered. A
	// memtable leaves imm before its manifest write and Checkpoint callback,
	// so Flush waits on these, not on an empty imm.
	frozen, flushed uint64

	crashed atomic.Bool

	// compactMu serializes compactions (background loop vs CompactNow).
	compactMu sync.Mutex
	// manifestMu orders manifest writes with the version updates they record.
	manifestMu sync.Mutex

	flushC   chan struct{}
	compactC chan struct{}
	quit     chan struct{}
	wg       sync.WaitGroup

	counters engineCounters
}

// Open opens (creating if needed) an engine in opts.Dir: it reads the
// manifest, deletes unreferenced and temporary files left by a crash, opens
// every live table (validating index, bloom and props checksums), and
// starts the background flusher and compactor.
func Open(opts Options) (*Engine, error) {
	if opts.Dir == "" {
		return nil, errors.New("lsm: Dir is required")
	}
	opts.Tuning = opts.Tuning.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: create dir: %w", err)
	}
	man, err := readManifest(opts.Dir)
	if err != nil {
		return nil, err
	}
	if err := removeUnreferenced(opts.Dir, man); err != nil {
		return nil, err
	}
	e := &Engine{
		opts:       opts,
		bcache:     cache.NewServerShards(opts.BlockCacheBytes, cache.DefaultShards),
		mem:        newMemtable(),
		nextFile:   man.NextFile,
		checkpoint: man.Checkpoint,
		flushC:     make(chan struct{}, 1),
		compactC:   make(chan struct{}, 1),
		quit:       make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	for _, lvl := range man.Levels {
		var tables []*table
		for _, num := range lvl {
			t, terr := openTable(opts.Dir, num)
			if terr != nil {
				e.releaseTables()
				return nil, terr
			}
			tables = append(tables, t)
		}
		e.levels = append(e.levels, tables)
	}
	e.wg.Add(2)
	go e.flusher()
	go e.compactor()
	return e, nil
}

// Apply records key -> val (the write itself is already in the owner's WAL
// at lsn; the engine only needs the position for checkpointing). Writers
// are externally serialized. When the flush queue is full, Apply stalls
// until the flusher catches up.
func (e *Engine) Apply(key, val []byte, lsn uint64) error {
	return e.put(key, val, false, lsn)
}

// Delete records a tombstone for key.
func (e *Engine) Delete(key []byte, lsn uint64) error {
	return e.put(key, nil, true, lsn)
}

func (e *Engine) put(key, val []byte, tombstone bool, lsn uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		if e.crashed.Load() {
			return nil // a crashed process loses in-flight work silently
		}
		return ErrClosed
	}
	for len(e.imm) >= maxImmutable && !e.closed && e.flushErr == nil {
		e.cond.Wait()
	}
	if e.flushErr != nil {
		return e.flushErr
	}
	e.mem.set(key, val, tombstone, lsn)
	if e.mem.bytes >= e.opts.MemtableBytes {
		e.rotateLocked()
	}
	return nil
}

// rotateLocked freezes the mutable memtable into the flush queue. Caller
// holds mu.
func (e *Engine) rotateLocked() {
	if e.mem.len() == 0 {
		return
	}
	e.imm = append(e.imm, e.mem)
	e.frozen++
	e.mem = newMemtable()
	select {
	case e.flushC <- struct{}{}:
	default:
	}
}

// Get returns the newest value for key, or found=false if the key is absent
// or deleted. The returned slice must not be modified.
func (e *Engine) Get(key []byte) ([]byte, bool, error) {
	e.mu.Lock()
	if e.closed && e.crashed.Load() {
		e.mu.Unlock()
		return nil, false, ErrClosed
	}
	if ent, ok := e.mem.get(key); ok {
		e.mu.Unlock()
		if ent.tombstone {
			return nil, false, nil
		}
		return ent.val, true, nil
	}
	imms := make([]*memtable, len(e.imm))
	copy(imms, e.imm)
	pinned := e.pinTablesLocked()
	e.mu.Unlock()
	defer unpin(pinned.all)

	// Frozen memtables, newest first.
	for i := len(imms) - 1; i >= 0; i-- {
		if ent, ok := imms[i].get(key); ok {
			if ent.tombstone {
				return nil, false, nil
			}
			return ent.val, true, nil
		}
	}
	// L0 newest first (tables overlap), then one candidate per deeper level.
	for _, t := range pinned.l0 {
		val, tomb, found, err := t.get(key, e.bcache, &e.counters)
		if err != nil {
			return nil, false, err
		}
		if found {
			if tomb {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	for _, lvl := range pinned.deep {
		i := sort.Search(len(lvl), func(i int) bool { return bytes.Compare(lvl[i].maxKey, key) >= 0 })
		if i >= len(lvl) || bytes.Compare(lvl[i].minKey, key) > 0 {
			continue
		}
		val, tomb, found, err := lvl[i].get(key, e.bcache, &e.counters)
		if err != nil {
			return nil, false, err
		}
		if found {
			if tomb {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	return nil, false, nil
}

// pinnedTables is a read-consistent snapshot of the table set.
type pinnedTables struct {
	l0   []*table
	deep [][]*table
	all  []*table
}

// pinTablesLocked refs every live table so compaction cannot delete files
// out from under a read or scan. Caller holds mu.
func (e *Engine) pinTablesLocked() pinnedTables {
	var p pinnedTables
	for n, lvl := range e.levels {
		tables := make([]*table, len(lvl))
		copy(tables, lvl)
		for _, t := range tables {
			t.ref()
			p.all = append(p.all, t)
		}
		if n == 0 {
			p.l0 = tables
		} else {
			p.deep = append(p.deep, tables)
		}
	}
	return p
}

func unpin(tables []*table) {
	for _, t := range tables {
		t.unref()
	}
}

// Iter streams every live (non-tombstoned) entry with lo <= key < hi in
// ascending key order through fn; nil bounds are open. Iteration stops early
// when fn returns false. The key and value slices are only valid during the
// callback for table-resident entries.
func (e *Engine) Iter(lo, hi []byte, fn func(key, val []byte) bool) error {
	e.mu.Lock()
	if e.closed && e.crashed.Load() {
		e.mu.Unlock()
		return ErrClosed
	}
	srcs := []iterator{newMemIter(e.mem, lo, hi)}
	for i := len(e.imm) - 1; i >= 0; i-- {
		srcs = append(srcs, newMemIter(e.imm[i], lo, hi))
	}
	pinned := e.pinTablesLocked()
	e.mu.Unlock()
	defer unpin(pinned.all)

	// Scans bypass the block cache so a bulk read cannot evict the
	// point-read working set.
	for _, t := range pinned.l0 {
		srcs = append(srcs, newTableIter(t, lo, hi, nil, &e.counters))
	}
	for _, lvl := range pinned.deep {
		srcs = append(srcs, newLevelIter(lvl, lo, hi, nil, &e.counters))
	}
	m := newMergeIter(srcs)
	for m.next() {
		if m.tombstone() {
			continue
		}
		if !fn(m.key(), m.val()) {
			break
		}
	}
	err := iterErr(srcs)
	if err != nil {
		e.mu.Lock()
		if e.closed {
			err = ErrClosed // Close or Crash released the table files under the scan
		}
		e.mu.Unlock()
	}
	return err
}

// flusher drains the immutable-memtable queue in arrival order.
func (e *Engine) flusher() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case <-e.flushC:
		}
		for e.flushOne() {
		}
	}
}

// flushOne waits for the owner's log to be durable through the oldest frozen
// memtable, writes it to a new L0 table, commits the manifest, advances the
// WAL checkpoint, and wakes stalled writers. It reports whether it did work.
func (e *Engine) flushOne() bool {
	e.mu.Lock()
	if len(e.imm) == 0 || e.flushErr != nil || e.crashed.Load() {
		e.mu.Unlock()
		return false
	}
	m := e.imm[0]
	num := e.nextFile
	e.nextFile++
	e.mu.Unlock()

	var t *table
	var err error
	if e.opts.LogDurable != nil && m.maxLSN > 0 {
		if err = e.opts.LogDurable(m.maxLSN); err != nil && e.crashed.Load() {
			err = errFlushAborted // the owner's log went down with the process
		}
	}
	if err == nil {
		t, err = e.writeMemtable(m, num)
	}
	if err != nil {
		if errors.Is(err, errFlushAborted) {
			return false
		}
		e.mu.Lock()
		e.flushErr = fmt.Errorf("lsm: flush: %w", err)
		e.cond.Broadcast()
		e.mu.Unlock()
		return false
	}

	var checkpoint uint64
	e.manifestMu.Lock()
	e.mu.Lock()
	e.imm = e.imm[1:]
	if len(e.levels) == 0 {
		e.levels = append(e.levels, nil)
	}
	e.levels[0] = append([]*table{t}, e.levels[0]...)
	if m.maxLSN > 0 && m.maxLSN+1 > e.checkpoint {
		e.checkpoint = m.maxLSN + 1
	}
	checkpoint = e.checkpoint
	man := e.manifestLocked()
	e.mu.Unlock()
	merr := writeManifest(e.opts.Dir, man)
	e.manifestMu.Unlock()
	if merr != nil {
		e.mu.Lock()
		e.flushErr = merr
		e.cond.Broadcast()
		e.mu.Unlock()
		return false
	}
	e.counters.flushes.Add(1)
	e.counters.flushBytes.Add(t.bytes)
	if cb := e.opts.Checkpoint; cb != nil && checkpoint > 1 {
		cb(checkpoint)
	}
	// Wake stalled writers and Flush waiters only now: a completed flush is
	// one whose manifest is durable and whose checkpoint has been delivered.
	e.mu.Lock()
	e.flushed++
	e.cond.Broadcast()
	e.mu.Unlock()
	e.maybeScheduleCompaction()
	return true
}

// writeMemtable streams one frozen memtable into a new SSTable.
func (e *Engine) writeMemtable(m *memtable, num uint64) (*table, error) {
	tw, err := newTableWriter(e.opts.Dir, num, e.opts.BlockBytes, DefaultBloomBitsPerKey)
	if err != nil {
		return nil, err
	}
	tw.abort = func() bool { return e.crashed.Load() }
	tw.observeLSN(m.maxLSN)
	m.ascendRange(nil, nil, func(key []byte, ent memEntry) bool {
		err = tw.add(key, ent.val, ent.tombstone)
		return err == nil
	})
	if err != nil {
		if !errors.Is(err, errFlushAborted) {
			tw.abandon()
		}
		return nil, err
	}
	t, err := tw.finish()
	if err != nil {
		if !errors.Is(err, errFlushAborted) {
			tw.abandon()
		}
		return nil, err
	}
	return t, nil
}

// manifestLocked snapshots the current version. Caller holds mu.
func (e *Engine) manifestLocked() manifest {
	man := manifest{NextFile: e.nextFile, Checkpoint: e.checkpoint}
	for _, lvl := range e.levels {
		nums := make([]uint64, len(lvl))
		for i, t := range lvl {
			nums[i] = t.num
		}
		man.Levels = append(man.Levels, nums)
	}
	return man
}

// Flush synchronously rotates the mutable memtable and waits until it and
// every memtable frozen before it are in tables with their checkpoints
// delivered (tests, graceful close, the docstore's Compact).
func (e *Engine) Flush() error {
	e.mu.Lock()
	e.rotateLocked()
	// Memtables flush in the order they froze, so this call is done once the
	// last one frozen so far has; later writes do not hold it up.
	last := e.frozen
	for (e.flushed < last || e.flushErr != nil) && !e.crashed.Load() {
		if e.flushErr != nil {
			err := e.flushErr
			e.mu.Unlock()
			return err
		}
		e.cond.Wait()
	}
	e.mu.Unlock()
	return nil
}

// CheckpointLSN returns the first LSN not yet durable in SSTables: the
// position WAL replay must resume from after a restart.
func (e *Engine) CheckpointLSN() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.checkpoint
}

// Scrub re-reads every data block of every live table and verifies its
// checksum — the chaos harness's torn-table detector.
func (e *Engine) Scrub() error {
	e.mu.Lock()
	pinned := e.pinTablesLocked()
	e.mu.Unlock()
	defer unpin(pinned.all)
	for _, t := range pinned.all {
		if err := t.scrub(); err != nil {
			return err
		}
	}
	return nil
}

// Stats snapshot the engine for metrics and tests.
type Stats struct {
	MemtableBytes    int64
	ImmMemtables     int
	Flushes          int64
	FlushBytes       int64
	TableCounts      []int // per level
	Tables           int
	TableBytes       int64
	Compactions      int64
	CompactBytesIn   int64
	CompactBytesOut  int64
	BloomNegatives   int64
	BlockCacheHits   int64
	BlockCacheMisses int64
	// ThrottleWaitNanos is always 0: compaction runs unthrottled. The
	// benchmark still reads it.
	ThrottleWaitNanos int64
	CheckpointLSN     uint64
}

// Stats returns a snapshot.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := Stats{
		MemtableBytes: e.mem.bytes,
		ImmMemtables:  len(e.imm),
		CheckpointLSN: e.checkpoint,
	}
	for _, lvl := range e.levels {
		st.TableCounts = append(st.TableCounts, len(lvl))
		st.Tables += len(lvl)
		for _, t := range lvl {
			st.TableBytes += t.bytes
		}
	}
	e.mu.Unlock()
	st.Flushes = e.counters.flushes.Load()
	st.FlushBytes = e.counters.flushBytes.Load()
	st.Compactions = e.counters.compactions.Load()
	st.CompactBytesIn = e.counters.compactBytesIn.Load()
	st.CompactBytesOut = e.counters.compactBytesOut.Load()
	st.BloomNegatives = e.counters.bloomNegatives.Load()
	st.BlockCacheHits = e.counters.blockCacheHits.Load()
	st.BlockCacheMisses = e.counters.blockCacheMisses.Load()
	return st
}

// Close stops background work, flushes everything in memory to tables (so
// the next open replays an empty WAL tail), commits the manifest and
// releases every file handle.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	close(e.quit)
	e.wg.Wait()
	// Final flush on the caller's goroutine: the background flusher is gone.
	e.mu.Lock()
	e.rotateLocked()
	e.mu.Unlock()
	for e.flushOne() {
	}
	e.mu.Lock()
	err := e.flushErr
	e.mu.Unlock()
	e.releaseTables()
	return err
}

// Crash abandons the engine as a kill -9 would: background work aborts at
// its next block boundary (leaving any in-flight table write torn on disk),
// nothing is flushed, and in-memory state is dropped. The directory is left
// exactly as a hard process death would leave it; a subsequent Open
// recovers from the manifest and the owner's WAL.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	close(e.quit)
	e.wg.Wait()
	e.releaseTables()
}

// releaseTables closes every table file handle.
func (e *Engine) releaseTables() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, lvl := range e.levels {
		for _, t := range lvl {
			t.f.Close()
		}
	}
	e.levels = nil
}
