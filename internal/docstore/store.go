// Package docstore implements the MongoDB-like document store MyStore
// clusters: schema-free BSON collections with automatically assigned _id
// keys, secondary indexes, a query engine with the shell operator dialect,
// and WAL-backed persistence in a log-structured table store (internal/lsm).
package docstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"mystore/internal/bson"
	"mystore/internal/lsm"
	"mystore/internal/trace"
	"mystore/internal/wal"
)

// Errors returned by the store.
var (
	ErrClosed    = errors.New("docstore: store is closed")
	ErrBadId     = errors.New("docstore: unsupported _id type")
	ErrNotFound  = errors.New("docstore: document not found")
	ErrDuplicate = errors.New("docstore: duplicate key")
	ErrBadFilter = errors.New("docstore: malformed filter")
)

// Options configure a Store.
type Options struct {
	// Dir is the persistence directory: a WAL plus the lsm engine's tables.
	// Documents live in SSTables behind a memtable, every memtable flush
	// checkpoints the WAL, and a restart replays only the unflushed tail.
	// Empty makes a scratch store: Open creates a fresh mystore-scratch-*
	// directory under the system's temporary directory and runs the same WAL
	// and tables there, and Close or Crash removes it, so nothing survives.
	Dir string
	// WAL tunes the write-ahead log.
	WAL wal.Options
	// Engine names the storage engine.
	//
	// Deprecated: every store runs lsm. "" and "lsm" are accepted; any other
	// name is refused.
	Engine string
	// Storage tunes the lsm engine (memtable budget, block cache size, ...).
	Storage lsm.Tuning
}

// Op is one applied mutation, as written to the WAL. The log records effects,
// not intentions: a "put" is the document now stored under its _id whatever
// was there before, a "delete" the id now absent, so replay re-applies without
// validating. Logs written before this layout hold "insert" and "update"
// records; both replay as "put".
type Op struct {
	Kind   string // "put", "delete", "index", "dropcoll"
	Coll   string
	Doc    bson.D // put: full document
	Id     any    // delete: primary key
	Field  string // index: field path
	Unique bool   // index: uniqueness
}

// Store is a document database instance. All exported methods are safe for
// concurrent use.
//
// Locking protocol (see DESIGN.md): writeMu serializes every mutation's
// check, WAL append and apply, which is what makes WAL order equal apply
// order and a precondition true of the state it is applied to; mu guards the
// collection map and the closed flag. The write path holds writeMu only for
// the one read of current state, the buffered WAL append, and the apply —
// BSON encoding and the durability wait (where group commit coalesces fsyncs
// across writers) happen outside it.
type Store struct {
	writeMu sync.Mutex // serializes mutations so WAL order == apply order
	mu      sync.RWMutex

	// The query counters sit beside the locks, which every operation already
	// writes, and not at the end of the struct: there they share a cache
	// line with log, engine and colls, which every operation reads, and each
	// indexed read's Add would invalidate it for the other cores.
	statScans    atomic.Uint64
	statIndexHit atomic.Uint64

	opts    Options
	scratch bool // opts.Dir is Open's scratch directory, removed at Close or Crash
	log     *wal.Log
	engine  *lsm.Engine
	colls   map[string]*Collection
	closed  bool

	replayedOps atomic.Uint64 // WAL records re-applied by the last open
}

// Open opens a store: the WAL and the lsm table store in opts.Dir, or in a
// new scratch directory when Dir is empty. It replays only the WAL tail past
// the last flush checkpoint.
func Open(opts Options) (*Store, error) {
	if opts.Engine != "" && opts.Engine != "lsm" {
		return nil, fmt.Errorf("docstore: storage engine %q is retired: every store runs lsm", opts.Engine)
	}
	if opts.Dir != "" {
		return open(opts)
	}
	dir, err := os.MkdirTemp("", "mystore-scratch-*")
	if err != nil {
		return nil, fmt.Errorf("docstore: create scratch dir: %w", err)
	}
	opts.Dir = dir
	s, err := open(opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.scratch = true
	return s, nil
}

func open(opts Options) (*Store, error) {
	s := &Store{opts: opts, colls: make(map[string]*Collection)}
	// A directory the retired map engine wrote holds its documents in a
	// snapshot (or one mid-write) over a WAL truncated below it: lsm would
	// open empty tables, replay that tail and serve a store missing
	// everything the snapshot held.
	for _, name := range []string{"snapshot.bson", "snapshot.bson.tmp"} {
		_, err := os.Stat(filepath.Join(opts.Dir, name))
		if err == nil {
			return nil, fmt.Errorf("docstore: %s holds %s, written by the retired map engine; lsm cannot recover it", opts.Dir, name)
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("docstore: %w", err)
		}
	}
	log, err := wal.Open(filepath.Join(opts.Dir, "wal"), opts.WAL)
	if err != nil {
		return nil, err
	}
	eng, err := lsm.Open(lsm.Options{
		Dir:    filepath.Join(opts.Dir, "tables"),
		Tuning: opts.Storage,
		// After every flush the engine's manifest is the durable root for
		// everything below the checkpoint; the WAL tail before it is dead
		// weight and can go.
		Checkpoint: func(lsn uint64) { log.TruncateBefore(wal.LSN(lsn)) },
		// A mutation is applied to the memtable before its WAL record is
		// known durable (and an unsynced one is never waited for by its
		// writer), so the flush waits instead.
		LogDurable: func(lsn uint64) error { return log.WaitDurable(wal.LSN(lsn)) },
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	s.log, s.engine = log, eng
	defs, err := s.loadLSMMeta()
	if err != nil {
		eng.Crash()
		log.Close()
		return nil, err
	}
	for _, def := range defs {
		c := s.C(def.coll)
		c.mu.Lock()
		c.buildIndexLocked(def.field, def.unique)
		c.mu.Unlock()
	}
	// Replay is blind: every record is an effect to redo. The checkpoint can
	// run slightly ahead of the replay position, and redoing an effect already
	// present converges.
	err = log.Replay(wal.LSN(eng.CheckpointLSN()), func(lsn wal.LSN, rec []byte) error {
		doc, err := bson.Unmarshal(rec)
		if err != nil {
			return fmt.Errorf("docstore: corrupt WAL record: %w", err)
		}
		op, err := decodeOp(doc)
		if err != nil {
			return err
		}
		s.replayedOps.Add(1)
		return s.replayOp(op, uint64(lsn))
	})
	if err != nil {
		eng.Crash()
		log.Close()
		return nil, err
	}
	return s, nil
}

// Dir returns the store's directory: Options.Dir, or the scratch directory
// Open made when that was empty.
func (s *Store) Dir() string { return s.opts.Dir }

// Engine exposes the lsm engine for metrics and tests.
func (s *Store) Engine() *lsm.Engine { return s.engine }

// ReplayedOps reports how many WAL records the last Open re-applied: the
// unflushed tail past the lsm checkpoint, which is what a restart costs.
func (s *Store) ReplayedOps() uint64 { return s.replayedOps.Load() }

// C returns the named collection, creating it on first use (the MongoDB
// behaviour the paper's record examples rely on). The RLock fast path keeps
// the hot case — the collection already exists — off the write lock.
func (s *Store) C(name string) *Collection {
	s.mu.RLock()
	c, ok := s.colls[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.colls[name]; ok { // double-check: we raced another creator
		return c
	}
	c = newCollection(s, name)
	s.colls[name] = c
	return c
}

// Collections returns the names of existing collections.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.colls))
	for name := range s.colls {
		out = append(out, name)
	}
	return out
}

// DropCollection removes a collection and its documents.
func (s *Store) DropCollection(name string) error {
	_, err := s.mutate(context.Background(), Op{Kind: "dropcoll", Coll: name}, nil,
		func(lsn uint64) error { return s.applyDropColl(name, lsn) }, waitSync)
	return err
}

func (s *Store) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// syncMode says whether a mutation waits for its WAL record's fsync.
type syncMode bool

const (
	// waitSync returns once the record is on stable storage (under
	// SyncEveryAppend): the caller's ack is a durability promise.
	waitSync syncMode = true
	// skipSync returns once the record is appended and applied. It is for a
	// caller whose write is already durable in a log of its own and redone
	// from there after a crash; SyncWAL, the lsm flush and Compact are the
	// barriers that make such records durable before anything relies on them.
	skipSync syncMode = false
)

// mutate is the store's one write protocol. op is encoded outside the locks;
// under writeMu, check (when non-nil) reads current state and says whether the
// mutation goes ahead — false or an error refuses it and nothing reaches the
// WAL; then the record is appended and apply runs with its LSN. Under waitSync
// the durability wait follows the unlock, under its own "wal.commit" span so a
// trace shows how much of a write sat waiting on the group fsync. It reports
// whether the mutation was applied.
func (s *Store) mutate(ctx context.Context, op Op, check func() (bool, error), apply func(lsn uint64) error, mode syncMode) (bool, error) {
	if s.isClosed() {
		return false, ErrClosed
	}
	// BSON-encode outside the lock; it is the expensive part of the write.
	rec, err := bson.Marshal(encodeOp(op))
	if err != nil {
		return false, err
	}

	s.writeMu.Lock()
	if s.isClosed() {
		s.writeMu.Unlock()
		return false, ErrClosed
	}
	if check != nil {
		if ok, err := check(); err != nil || !ok {
			s.writeMu.Unlock()
			return false, err
		}
	}
	// Buffered append only: the fsync wait happens after writeMu is
	// released, so concurrent writers form one group-commit cohort instead
	// of serializing their fsyncs behind the apply lock.
	lsn, err := s.log.AppendNoWait(rec)
	if err != nil {
		s.writeMu.Unlock()
		return false, err
	}
	// An apply can fail only in the storage engine (crashed or closed under
	// us). The record is logged and the caller is told the write failed; if
	// the record proves durable, the next open redoes it.
	err = apply(uint64(lsn))
	s.writeMu.Unlock()
	if err != nil {
		return false, err
	}
	if mode == skipSync {
		return true, nil
	}
	_, sp := trace.Start(ctx, "wal.commit")
	err = s.log.WaitDurable(lsn)
	sp.End(err)
	return err == nil, err
}

// replayOp redoes one logged op during single-threaded open.
func (s *Store) replayOp(op Op, lsn uint64) error {
	switch op.Kind {
	case "put", "insert", "update":
		return s.C(op.Coll).blindPut(op.Doc, lsn)
	case "delete":
		return s.C(op.Coll).blindSet(op.Id, nil, lsn)
	case "index":
		return s.C(op.Coll).applyEnsureIndex(op.Field, op.Unique, lsn)
	case "dropcoll":
		return s.applyDropColl(op.Coll, lsn)
	default:
		return fmt.Errorf("docstore: unknown op kind %q", op.Kind)
	}
}

func (s *Store) applyDropColl(name string, lsn uint64) error {
	if err := s.dropCollLSM(name, lsn); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.colls, name)
	s.mu.Unlock()
	return nil
}

// Stats summarize the store for monitoring and tests.
type Stats struct {
	Collections int
	Documents   int
	DataBytes   int64
	IndexHits   uint64
	Scans       uint64
}

// Stats returns current aggregate statistics. DataBytes is the engine's
// table bytes plus its memtable, and the first call after a restart pays one
// discovery scan per collection to learn document counts.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Collections: len(s.colls), IndexHits: s.statIndexHit.Load(), Scans: s.statScans.Load()}
	for _, c := range s.colls {
		c.mu.RLock()
		st.Documents += c.primary.Len()
		c.mu.RUnlock()
	}
	est := s.engine.Stats()
	st.DataBytes = est.TableBytes + est.MemtableBytes
	return st
}

// WAL exposes the write-ahead log so callers can register its histograms
// (fsync latency, batch sizes) with a metrics registry.
func (s *Store) WAL() *wal.Log { return s.log }

// SyncWAL returns once every mutation applied so far is durable in the WAL
// (under SyncEveryAppend; a no-op otherwise) — the barrier a skipSync writer
// runs before it lets go of its own copy.
func (s *Store) SyncWAL() error {
	return s.log.WaitDurable(s.log.NextLSN() - 1)
}

// Compact bounds WAL growth: it flushes the memtable to a table, and the
// flush's checkpoint truncates the WAL below what the tables now hold.
func (s *Store) Compact() error {
	return s.engine.Flush()
}

// WALStats reports the write-ahead log's commit counters (appends, fsyncs,
// group-commit batch sizes). The second result is always true.
func (s *Store) WALStats() (wal.SyncStats, bool) {
	return s.log.Stats(), true
}

// Close flushes and closes the store: the final memtable flush checkpoints
// the WAL, so the next open replays nothing. A scratch store skips the flush,
// since its directory goes with it.
func (s *Store) Close() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.scratch {
		return s.abandon()
	}
	err := s.engine.Close()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash abandons the store as an abrupt process death (kill -9) would: no
// flush, no fsync, file handles dropped, any in-flight table write left
// torn on disk. In-flight writers get errors instead of durability; a
// subsequent Open must recover from exactly what a hard crash leaves. The
// chaos harness uses it to exercise recovery invariants in-process. A scratch
// store's directory is removed.
func (s *Store) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.abandon() //nolint:errcheck // a crash reports nothing
}

// abandon drops the engine and the log without a flush or an fsync, and a
// scratch store's directory with them. Order matters: crash the engine first
// so stalled writers unblock with the engine refusing work, then abandon the
// log so durability waiters fail out rather than fsync.
func (s *Store) abandon() error {
	s.engine.Crash()
	s.log.Abandon()
	if !s.scratch {
		return nil
	}
	return os.RemoveAll(s.opts.Dir)
}

func encodeOp(op Op) bson.D {
	d := bson.D{{Key: "op", Value: op.Kind}, {Key: "coll", Value: op.Coll}}
	if op.Doc != nil {
		d = append(d, bson.E{Key: "doc", Value: op.Doc})
	}
	if op.Id != nil {
		d = append(d, bson.E{Key: "id", Value: op.Id})
	}
	if op.Field != "" {
		d = append(d, bson.E{Key: "field", Value: op.Field})
		d = append(d, bson.E{Key: "unique", Value: op.Unique})
	}
	return d
}

func decodeOp(d bson.D) (Op, error) {
	op := Op{}
	op.Kind = d.StringOr("op", "")
	op.Coll = d.StringOr("coll", "")
	if v, ok := d.Get("doc"); ok {
		doc, ok := v.(bson.D)
		if !ok {
			return op, fmt.Errorf("docstore: op doc is %T", v)
		}
		op.Doc = doc
	}
	if v, ok := d.Get("id"); ok {
		op.Id = v
	}
	op.Field = d.StringOr("field", "")
	if v, ok := d.Get("unique"); ok {
		b, _ := v.(bool)
		op.Unique = b
	}
	if op.Kind == "" {
		return op, errors.New("docstore: op record missing kind")
	}
	// Keys are <coll> 0x00 <id>: an empty coll would land in the metadata
	// range, and one holding 0x00 in another collection's.
	if op.Coll == "" || strings.IndexByte(op.Coll, 0) >= 0 {
		return op, fmt.Errorf("docstore: op record names collection %q", op.Coll)
	}
	return op, nil
}
