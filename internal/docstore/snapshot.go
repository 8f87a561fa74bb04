package docstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mystore/internal/bson"
	"mystore/internal/wal"
)

// Snapshotting bounds WAL growth: Compact writes the full store contents to
// a snapshot file, records the WAL position it covers, and drops the WAL
// segments before that position. On open, the snapshot loads first and the
// WAL replays from the recorded position.
//
// Snapshot file layout: a stream of length-prefixed BSON documents. The
// first is a header {"lsn": int64}; then, per collection, one
// {"coll": name, "indexes": [{"field": f, "unique": b}, ...]} descriptor
// followed by one {"coll": name, "doc": <document>} entry per document.

const snapshotFile = "snapshot.bson"

// Compact bounds WAL growth. With the lsm engine it forces a memtable
// flush — the tables are the snapshot, and the flush's checkpoint truncates
// the WAL. With the map engine it writes a fuzzy snapshot: the covered LSN
// is pinned under a brief writeMu hold, document references are gathered
// per collection under that collection's read lock only (documents are
// immutable once applied, so holding pointers is safe), and all encoding
// and file I/O runs outside every lock. Writers therefore stall for O(1)
// lock work, not for the dump. The snapshot may include ops at or past its
// recorded LSN; the WAL holds effects, so replaying the tail over them
// converges to the same state.
func (s *Store) Compact() error {
	if s.opts.Dir == "" {
		return nil
	}
	if s.engine != nil {
		return s.engine.Flush()
	}
	// Pin the snapshot position with no apply in flight, and snapshot the
	// collection map.
	s.writeMu.Lock()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.writeMu.Unlock()
		return ErrClosed
	}
	colls := make(map[string]*Collection, len(s.colls))
	for name, c := range s.colls {
		colls[name] = c
	}
	s.mu.RUnlock()
	upto := s.log.NextLSN()
	s.writeMu.Unlock()
	// The snapshot header promises every record below upto; the log must hold
	// them durably first, or after a power loss it reopens short of upto and
	// hands those LSNs out again — to records the next replay skips.
	if err := s.log.WaitDurable(upto - 1); err != nil {
		return err
	}

	// Gather phase: per-collection read lock, pointer copies only.
	type collDump struct {
		name    string
		indexes bson.A
		docs    []bson.D
	}
	dumps := make([]collDump, 0, len(colls))
	for name, c := range colls {
		d := collDump{name: name}
		c.mu.RLock()
		for field, ix := range c.indexes {
			d.indexes = append(d.indexes, bson.D{
				{Key: "field", Value: field},
				{Key: "unique", Value: ix.unique},
			})
		}
		d.docs = make([]bson.D, 0, c.primary.Len())
		c.primary.Ascend(func(_ []byte, doc bson.D) bool {
			d.docs = append(d.docs, doc)
			return true
		})
		c.mu.RUnlock()
		dumps = append(dumps, d)
	}

	// Encode-and-write phase: no locks held; concurrent writers proceed.
	tmp := filepath.Join(s.opts.Dir, snapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("docstore: create snapshot: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)

	writeDoc := func(d bson.D) error {
		enc, err := bson.Marshal(d)
		if err != nil {
			return err
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(enc)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err = w.Write(enc)
		return err
	}

	err = writeDoc(bson.D{{Key: "lsn", Value: int64(upto)}})
	if err == nil {
	dump:
		for _, d := range dumps {
			if err = writeDoc(bson.D{{Key: "coll", Value: d.name}, {Key: "indexes", Value: d.indexes}}); err != nil {
				break
			}
			for _, doc := range d.docs {
				if hook := s.compactDocHook; hook != nil {
					hook()
				}
				if err = writeDoc(bson.D{{Key: "coll", Value: d.name}, {Key: "doc", Value: doc}}); err != nil {
					break dump
				}
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("docstore: write snapshot: %w", err)
	}
	// Crash-atomic install: rename, then fsync the directory so the rename
	// itself survives a power cut. A crash before this point leaves the old
	// snapshot (and a stray .tmp recovery ignores); never a torn new one.
	if err := os.Rename(tmp, filepath.Join(s.opts.Dir, snapshotFile)); err != nil {
		return fmt.Errorf("docstore: install snapshot: %w", err)
	}
	if err := fsyncDir(s.opts.Dir); err != nil {
		return fmt.Errorf("docstore: sync snapshot dir: %w", err)
	}
	return s.log.TruncateBefore(upto)
}

// fsyncDir makes a directory entry change (rename) durable.
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

// loadSnapshot restores collections from the snapshot file, if present, and
// returns the LSN from which the WAL must replay.
func (s *Store) loadSnapshot() (wal.LSN, error) {
	// A stray temp file is a snapshot whose write was interrupted; it is
	// never loaded, only removed.
	os.Remove(filepath.Join(s.opts.Dir, snapshotFile+".tmp"))
	path := filepath.Join(s.opts.Dir, snapshotFile)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 1, nil
	}
	if err != nil {
		return 0, fmt.Errorf("docstore: open snapshot: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)

	readDoc := func() (bson.D, error) {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > bson.MaxDocumentSize {
			return nil, fmt.Errorf("docstore: snapshot entry of %d bytes", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return bson.Unmarshal(buf)
	}

	header, err := readDoc()
	if err != nil {
		return 0, fmt.Errorf("docstore: snapshot header: %w", err)
	}
	lsnVal, ok := header.Get("lsn")
	lsn, isInt := lsnVal.(int64)
	if !ok || !isInt || lsn < 1 {
		return 0, errors.New("docstore: snapshot header missing lsn")
	}

	for {
		entry, err := readDoc()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("docstore: snapshot entry: %w", err)
		}
		name := entry.StringOr("coll", "")
		if name == "" {
			return 0, errors.New("docstore: snapshot entry missing coll")
		}
		c := s.C(name)
		if docVal, ok := entry.Get("doc"); ok {
			doc, isDoc := docVal.(bson.D)
			if !isDoc {
				return 0, fmt.Errorf("docstore: snapshot doc is %T", docVal)
			}
			if err := c.blindPut(doc, 0); err != nil {
				return 0, err
			}
			continue
		}
		if ixVal, ok := entry.Get("indexes"); ok {
			arr, _ := ixVal.(bson.A)
			for _, v := range arr {
				spec, isDoc := v.(bson.D)
				if !isDoc {
					continue
				}
				uniqueVal, _ := spec.Get("unique")
				unique, _ := uniqueVal.(bool)
				if err := c.applyEnsureIndex(spec.StringOr("field", ""), unique, 0); err != nil {
					return 0, err
				}
			}
		}
	}
	return wal.LSN(lsn), nil
}
