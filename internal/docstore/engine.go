package docstore

import (
	"fmt"
	"sync"

	"mystore/internal/bson"
	"mystore/internal/lsm"
)

// A collection's primary index lives in the store-wide log-structured table
// store (lsm): documents sit in SSTables behind a memtable, and only the
// working set is in memory. Collections talk to it through primaryStore;
// mutations additionally carry the op's WAL LSN so the engine can checkpoint
// (truncate) the log as memtables flush.
//
// LSM key encoding. One engine holds every collection, namespaced as
// <collection> 0x00 <idKey>. Metadata sorts before all documents under the
// 0x00 prefix:
//
//	0x00 'c' 0x00 <collection>                 collection marker
//	0x00 'i' 0x00 <collection> 0x00 <field>    index definition (value: unique flag)
//
// Markers make empty-but-written-to collections and index definitions
// recoverable without scanning documents: open reads just the metadata range
// and rebuilds secondary indexes by scanning only the collections that
// declare them.

// primaryStore is the primary (_id -> document) index of one collection.
// Callers treat returned documents as immutable.
type primaryStore interface {
	// Get returns the stored document for key.
	Get(key []byte) (doc bson.D, ok bool)
	// Set stores doc (already encoded as enc) at key. isNew tells the
	// engine whether key is a fresh insert (the caller read the key under
	// the store's write lock).
	Set(key []byte, doc bson.D, enc []byte, lsn uint64, isNew bool) error
	// Delete removes key; the caller read it under the store's write lock.
	Delete(key []byte, lsn uint64) error
	// Ascend walks documents in key order until fn returns false.
	Ascend(fn func(key []byte, doc bson.D) bool)
	// Len returns the document count.
	Len() int
}

// --- lsm engine adapter ---

const (
	metaCollPrefix  = "\x00c\x00"
	metaIndexPrefix = "\x00i\x00"
)

func docKey(coll string, idk []byte) []byte {
	k := make([]byte, 0, len(coll)+1+len(idk))
	k = append(k, coll...)
	k = append(k, 0)
	return append(k, idk...)
}

func collRange(coll string) (lo, hi []byte) {
	return append([]byte(coll), 0), append([]byte(coll), 1)
}

func collMarkerKey(coll string) []byte {
	return append([]byte(metaCollPrefix), coll...)
}

func indexDefKey(coll, field string) []byte {
	k := append([]byte(metaIndexPrefix), coll...)
	k = append(k, 0)
	return append(k, field...)
}

// lsmPrimary scopes one collection onto the store-wide lsm engine. The
// document count is maintained incrementally once known; the first Len()
// after a restart discovers it with one scan (the engine keeps no per-prefix
// counts).
type lsmPrimary struct {
	eng    *lsm.Engine
	coll   string
	marked bool // collection marker written (writers are store-serialized)

	countMu    sync.Mutex
	count      int
	countKnown bool
}

func newLsmPrimary(eng *lsm.Engine, coll string) *lsmPrimary {
	return &lsmPrimary{eng: eng, coll: coll}
}

// decode unwraps an engine value. Engine reads fail only on a poisoned
// (crashed/closed) engine or on storage corruption; the former reads as
// absent (the store is on its way down), the latter is fatal — serving a
// wrong answer would silently lose data.
func (p *lsmPrimary) decode(val []byte, err error) (bson.D, bool) {
	if err != nil {
		if err == lsm.ErrClosed {
			return nil, false
		}
		panic(fmt.Sprintf("docstore: lsm read failed: %v", err))
	}
	doc, derr := bson.Unmarshal(val)
	if derr != nil {
		panic(fmt.Sprintf("docstore: corrupt document in lsm store: %v", derr))
	}
	return doc, true
}

func (p *lsmPrimary) Get(key []byte) (bson.D, bool) {
	val, ok, err := p.eng.Get(docKey(p.coll, key))
	if err == nil && !ok {
		return nil, false
	}
	return p.decode(val, err)
}

func (p *lsmPrimary) Set(key []byte, doc bson.D, enc []byte, lsn uint64, isNew bool) error {
	if !p.marked {
		if err := p.eng.Apply(collMarkerKey(p.coll), nil, lsn); err != nil {
			return err
		}
		p.marked = true
	}
	if err := p.eng.Apply(docKey(p.coll, key), enc, lsn); err != nil {
		return err
	}
	if isNew {
		p.adjust(1)
	}
	return nil
}

func (p *lsmPrimary) Delete(key []byte, lsn uint64) error {
	if err := p.eng.Delete(docKey(p.coll, key), lsn); err != nil {
		return err
	}
	p.adjust(-1)
	return nil
}

func (p *lsmPrimary) Ascend(fn func(key []byte, doc bson.D) bool) {
	lo, hi := collRange(p.coll)
	err := p.eng.Iter(lo, hi, func(k, v []byte) bool {
		doc, ok := p.decode(v, nil)
		if !ok {
			return false
		}
		return fn(k[len(p.coll)+1:], doc)
	})
	if err != nil && err != lsm.ErrClosed {
		panic(fmt.Sprintf("docstore: lsm scan failed: %v", err))
	}
}

func (p *lsmPrimary) Len() int {
	p.countMu.Lock()
	defer p.countMu.Unlock()
	if !p.countKnown {
		// Discovery scan. Callers hold the collection lock (read or write),
		// and mutations hold it exclusively, so the count cannot move
		// underneath the scan.
		n := 0
		lo, hi := collRange(p.coll)
		if err := p.eng.Iter(lo, hi, func(k, v []byte) bool {
			n++
			return true
		}); err != nil {
			return 0 // crashed engine: report empty rather than lie
		}
		p.count = n
		p.countKnown = true
	}
	return p.count
}

func (p *lsmPrimary) adjust(delta int) {
	p.countMu.Lock()
	if p.countKnown {
		p.count += delta
	}
	p.countMu.Unlock()
}

// saveIndexDef persists an index definition in the engine's metadata range
// so restarts can rebuild the index without replaying the full WAL history.
func (s *Store) saveIndexDef(coll, field string, unique bool, lsn uint64) error {
	val := []byte{0}
	if unique {
		val[0] = 1
	}
	return s.engine.Apply(indexDefKey(coll, field), val, lsn)
}

// dropCollLSM tombstones every key belonging to a dropped collection:
// documents, the collection marker, and its index definitions. Caller holds
// writeMu.
func (s *Store) dropCollLSM(name string, lsn uint64) error {
	var keys [][]byte
	collect := func(lo, hi []byte) error {
		return s.engine.Iter(lo, hi, func(k, v []byte) bool {
			keys = append(keys, append([]byte(nil), k...))
			return true
		})
	}
	lo, hi := collRange(name)
	if err := collect(lo, hi); err != nil {
		return err
	}
	ixLo := indexDefKey(name, "")
	ixHi := append([]byte(nil), ixLo...)
	ixHi[len(ixHi)-1] = 1 // 0x00 terminator -> 0x01: covers every field suffix
	if err := collect(ixLo, ixHi); err != nil {
		return err
	}
	keys = append(keys, collMarkerKey(name))
	for _, k := range keys {
		if err := s.engine.Delete(k, lsn); err != nil {
			return err
		}
	}
	return nil
}

// indexDef is one recovered index definition.
type indexDef struct {
	coll   string
	field  string
	unique bool
}

// loadLSMMeta scans the engine's metadata range, creating every known
// collection and returning the index definitions to rebuild.
func (s *Store) loadLSMMeta() ([]indexDef, error) {
	var defs []indexDef
	err := s.engine.Iter([]byte{0}, []byte{1}, func(k, v []byte) bool {
		key := string(k)
		switch {
		case len(key) > len(metaCollPrefix) && key[:len(metaCollPrefix)] == metaCollPrefix:
			s.C(key[len(metaCollPrefix):])
		case len(key) > len(metaIndexPrefix) && key[:len(metaIndexPrefix)] == metaIndexPrefix:
			rest := key[len(metaIndexPrefix):]
			for i := 0; i < len(rest); i++ {
				if rest[i] == 0 {
					defs = append(defs, indexDef{
						coll:   rest[:i],
						field:  rest[i+1:],
						unique: len(v) > 0 && v[0] == 1,
					})
					break
				}
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return defs, nil
}
