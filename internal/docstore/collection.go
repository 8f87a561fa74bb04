package docstore

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"mystore/internal/bson"
	"mystore/internal/uuid"
)

// Collection is a named set of documents with a primary _id index and
// optional secondary indexes.
type Collection struct {
	// mu guards the in-memory structures. Mutations additionally serialize
	// through the store's writeMu, so at most one writer exists at a time.
	mu      sync.RWMutex
	store   *Store
	name    string
	primary primaryStore // idKey -> document, engine-backed
	indexes map[string]*fieldIndex

	// observer, when non-nil, runs inside every applied mutation with the
	// previous and new version of the document (nil when absent), under the
	// collection write lock. The cluster layer uses it to maintain the
	// anti-entropy hash trees incrementally. It must be fast and must not
	// call back into the collection.
	observer func(old, new bson.D)
}

func newCollection(s *Store, name string) *Collection {
	return &Collection{
		store:   s,
		name:    name,
		primary: newLsmPrimary(s.engine, name),
		indexes: make(map[string]*fieldIndex),
	}
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.primary.Len()
}

// Cond decides, with every other writer excluded, whether a conditional write
// goes ahead. stored is the document currently under the id — nil when there
// is none — and must be treated as immutable. False refuses the write
// quietly; an error refuses it and is returned to the caller. Either way
// nothing is logged. A Cond must not call back into the store.
type Cond func(stored bson.D) (bool, error)

// Insert stores a new document. A missing _id is assigned a fresh ObjectId.
// The (possibly augmented) document's id is returned. The document is cloned
// before insertion, so the caller may reuse it.
func (c *Collection) Insert(doc bson.D) (any, error) {
	return c.InsertCtx(context.Background(), doc)
}

// InsertCtx is Insert carrying the caller's context so the write's
// durability wait appears in its trace.
func (c *Collection) InsertCtx(ctx context.Context, doc bson.D) (any, error) {
	doc = doc.Clone()
	id, ok := doc.Get("_id")
	if !ok {
		id = uuid.NewObjectId()
		// Prepend _id, matching MongoDB's canonical layout.
		doc = append(bson.D{{Key: "_id", Value: id}}, doc...)
	}
	_, err := c.write(ctx, id, doc, waitSync, func(stored bson.D) (bool, error) {
		if stored != nil {
			return false, fmt.Errorf("%w: _id %v", ErrDuplicate, id)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return id, nil
}

// Update replaces the document whose _id matches doc's _id. The document
// must already exist.
func (c *Collection) Update(doc bson.D) error {
	return c.UpdateCtx(context.Background(), doc)
}

// UpdateCtx is Update carrying the caller's context so the write's
// durability wait appears in its trace.
func (c *Collection) UpdateCtx(ctx context.Context, doc bson.D) error {
	id, ok := doc.Get("_id")
	if !ok {
		return fmt.Errorf("%w: update requires _id", ErrBadId)
	}
	_, err := c.write(ctx, id, doc.Clone(), waitSync, func(stored bson.D) (bool, error) {
		if stored == nil {
			return false, fmt.Errorf("%w: _id %v", ErrNotFound, id)
		}
		return true, nil
	})
	return err
}

// Upsert inserts doc if its _id is unknown and replaces the stored document
// otherwise. A missing _id always inserts.
func (c *Collection) Upsert(doc bson.D) (any, error) {
	id, ok := doc.Get("_id")
	if !ok {
		return c.Insert(doc)
	}
	_, err := c.write(context.Background(), id, doc.Clone(), waitSync, nil)
	return id, err
}

// PutIf is Upsert under a condition: doc, which must carry an _id, replaces
// whatever is stored under it only if cond, shown that stored document, says
// so. The decision and the write are one step — no other writer runs between
// them — which is what a compare-and-replace such as last-write-wins needs.
// It reports whether doc was written, and counts as one primary-index hit.
func (c *Collection) PutIf(ctx context.Context, doc bson.D, cond Cond) (bool, error) {
	return c.putIf(ctx, doc, cond, waitSync)
}

// PutIfUnsynced is PutIf without the wait for the WAL's fsync: doc is logged
// and applied when it returns, and durable only after the next Store.SyncWAL,
// lsm flush or Compact. It is for a caller whose write is already durable in a
// log of its own, from which it is redone after a crash.
func (c *Collection) PutIfUnsynced(ctx context.Context, doc bson.D, cond Cond) (bool, error) {
	return c.putIf(ctx, doc, cond, skipSync)
}

func (c *Collection) putIf(ctx context.Context, doc bson.D, cond Cond, mode syncMode) (bool, error) {
	id, ok := doc.Get("_id")
	if !ok {
		return false, fmt.Errorf("%w: conditional put requires _id", ErrBadId)
	}
	c.store.statIndexHit.Add(1)
	return c.write(ctx, id, doc.Clone(), mode, cond)
}

// Delete removes the document with the given id, reporting whether it
// existed.
func (c *Collection) Delete(id any) (bool, error) {
	return c.DeleteCtx(context.Background(), id)
}

// DeleteCtx is Delete carrying the caller's context so the write's
// durability wait appears in its trace.
func (c *Collection) DeleteCtx(ctx context.Context, id any) (bool, error) {
	return c.write(ctx, id, nil, waitSync, func(stored bson.D) (bool, error) { return stored != nil, nil })
}

// DeleteIf removes the document with the given id only if it exists and cond,
// shown the stored document, says so; like PutIf, the decision and the delete
// are one step. Callers that pick victims from an earlier scan use it so a
// write that landed since is not deleted with them. It reports whether a
// document was removed.
func (c *Collection) DeleteIf(id any, cond Cond) (bool, error) {
	return c.write(context.Background(), id, nil, waitSync, func(stored bson.D) (bool, error) {
		if stored == nil {
			return false, nil
		}
		return cond(stored)
	})
}

// Get returns the document with the given primary key. It is a lookup on the
// primary index and counts as one index hit.
func (c *Collection) Get(id any) (bson.D, bool) {
	key, err := idKey(id)
	if err != nil {
		return nil, false
	}
	c.store.statIndexHit.Add(1)
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.primary.Get(key)
	if !ok {
		return nil, false
	}
	return v.Clone(), true
}

// EnsureIndex creates a secondary index over the given field path if one
// does not exist, indexing current documents. Unique indexes fail if
// existing documents already collide.
func (c *Collection) EnsureIndex(field string, unique bool) error {
	c.mu.RLock()
	_, exists := c.indexes[field]
	c.mu.RUnlock()
	if exists {
		return nil
	}
	if unique {
		// Pre-validate against current contents to keep the WAL clean.
		seen := map[string]bool{}
		var dup bool
		c.mu.RLock()
		c.primary.Ascend(func(_ []byte, doc bson.D) bool {
			v, ok := lookupPath(doc, field)
			if !ok {
				return true
			}
			k := string(EncodeKey(v))
			if seen[k] {
				dup = true
				return false
			}
			seen[k] = true
			return true
		})
		c.mu.RUnlock()
		if dup {
			return fmt.Errorf("%w: existing documents collide on %q", ErrDuplicate, field)
		}
	}
	_, err := c.store.mutate(context.Background(), Op{Kind: "index", Coll: c.name, Field: field, Unique: unique}, nil,
		func(lsn uint64) error { return c.applyEnsureIndex(field, unique, lsn) }, waitSync)
	return err
}

// Indexes lists the indexed field paths.
func (c *Collection) Indexes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.indexes))
	for f := range c.indexes {
		out = append(out, f)
	}
	return out
}

// Distinct returns the distinct values of field among documents matching
// filter, in the canonical value order. Documents missing the field are
// skipped.
func (c *Collection) Distinct(field string, filter Filter) ([]any, error) {
	docs, err := c.Find(filter, FindOptions{})
	if err != nil {
		return nil, err
	}
	seen := map[string]any{}
	for _, doc := range docs {
		v, ok := lookupPath(doc, field)
		if !ok {
			continue
		}
		seen[string(EncodeKey(v))] = v
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys) // EncodeKey is order-preserving, so this is value order
	out := make([]any, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out, nil
}

// FindOne returns the first document matching filter, in unspecified order.
func (c *Collection) FindOne(filter Filter) (bson.D, bool, error) {
	docs, err := c.Find(filter, FindOptions{Limit: 1})
	if err != nil {
		return nil, false, err
	}
	if len(docs) == 0 {
		return nil, false, nil
	}
	return docs[0], true, nil
}

// SetApplyObserver installs fn to run on every applied mutation with the
// document's previous and new version (nil when absent): (nil, doc) for an
// insert, (old, doc) for an update, (old, nil) for a delete. fn runs under
// the collection write lock in apply order — it must be fast and must not
// call back into this collection. Pass nil to remove. WAL replay happens
// before any observer can be installed, so derived state covering restart
// data must be rebuilt by scanning (see Each).
func (c *Collection) SetApplyObserver(fn func(old, new bson.D)) {
	c.mu.Lock()
	c.observer = fn
	c.mu.Unlock()
}

// Each calls fn for every document in primary-key order under a single read
// lock — the batch counterpart of Find(Filter{}) without materializing (or
// deep-cloning) the whole collection. fn receives the stored document
// itself: it must treat it as immutable and must not call back into the
// collection. Iteration stops when fn returns false. Retaining the document
// or values inside it past the callback is safe — applied mutations replace
// whole documents, never edit them in place.
func (c *Collection) Each(fn func(doc bson.D) bool) {
	c.EachSynced(nil, fn)
}

// EachSynced is Each with a begin hook invoked after the read lock is held
// and before the first document. Writers are excluded for the whole scan, so
// callers rebuilding derived state (the cluster's Merkle forest) use begin
// to open their live-update window exactly at the snapshot point: every
// mutation either completed before the scan (and is seen by it) or starts
// after it (and reaches the observer installed by begin) — never both.
func (c *Collection) EachSynced(begin func(), fn func(doc bson.D) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if begin != nil {
		begin()
	}
	c.primary.Ascend(func(_ []byte, doc bson.D) bool {
		return fn(doc)
	})
	c.store.statScans.Add(1)
}

// Count returns the number of documents matching filter.
func (c *Collection) Count(filter Filter) (int, error) {
	if len(filter) == 0 {
		return c.Len(), nil
	}
	docs, err := c.Find(filter, FindOptions{})
	if err != nil {
		return 0, err
	}
	return len(docs), nil
}

// Find returns the documents matching filter, shaped by opts. Returned
// documents are deep copies; callers may mutate them freely.
func (c *Collection) Find(filter Filter, opts FindOptions) ([]bson.D, error) {
	c.mu.RLock()
	candidates, usedIndex, err := c.planLocked(filter)
	if err != nil {
		c.mu.RUnlock()
		return nil, err
	}
	var out []bson.D
	verify := func(doc bson.D) error {
		m, err := Match(doc, filter)
		if err != nil {
			return err
		}
		if m {
			out = append(out, doc.Clone())
		}
		return nil
	}
	if usedIndex {
		// An index that yields no candidates has answered the query: nothing
		// matches, and there is nothing to scan for.
		for _, idk := range candidates {
			if v, ok := c.primary.Get([]byte(idk)); ok {
				if err := verify(v); err != nil {
					c.mu.RUnlock()
					return nil, err
				}
			}
		}
	} else {
		// Full scan, unless we can short-circuit: an unsorted, unfiltered
		// window query stops after skip+limit documents.
		budget := -1
		if len(filter) == 0 && len(opts.Sort) == 0 && opts.Limit > 0 {
			budget = opts.Skip + opts.Limit
		}
		var scanErr error
		c.primary.Ascend(func(_ []byte, doc bson.D) bool {
			if scanErr = verify(doc); scanErr != nil {
				return false
			}
			return budget < 0 || len(out) < budget
		})
		if scanErr != nil {
			c.mu.RUnlock()
			return nil, scanErr
		}
	}
	c.mu.RUnlock()

	// Atomic stat bumps: the read path must not touch the store-wide lock.
	if usedIndex {
		c.store.statIndexHit.Add(1)
	} else {
		c.store.statScans.Add(1)
	}

	sortDocs(out, opts.Sort)
	out = applyWindow(out, opts.Skip, opts.Limit)
	if len(opts.Projection) > 0 {
		for i, d := range out {
			out[i] = project(d, opts.Projection)
		}
	}
	return out, nil
}

// planLocked inspects filter for a predicate servable by an index. It
// returns (candidateIdKeys, true, nil) when an index narrowed the search, or
// (nil, false, nil) to request a full scan. Caller holds mu.
func (c *Collection) planLocked(filter Filter) ([]string, bool, error) {
	for _, e := range filter {
		if e.Key == "_id" {
			// Primary key predicates hit the primary tree directly.
			if ids, ok := c.planPrimaryLocked(e.Value); ok {
				return ids, true, nil
			}
			continue
		}
		ix, ok := c.indexes[e.Key]
		if !ok {
			continue
		}
		if ids, ok := planIndexPredicate(ix, e.Value); ok {
			return ids, true, nil
		}
	}
	return nil, false, nil
}

func (c *Collection) planPrimaryLocked(operand any) ([]string, bool) {
	resolve := func(v any) ([]string, bool) {
		key, err := idKey(v)
		if err != nil {
			return nil, false
		}
		if _, ok := c.primary.Get(key); ok {
			return []string{string(key)}, true
		}
		return nil, true // definitively empty
	}
	if ops, isDoc := operand.(bson.D); isDoc && isOperatorDoc(ops) {
		if eq, ok := ops.Get("$eq"); ok && len(ops) == 1 {
			return resolve(eq)
		}
		if in, ok := ops.Get("$in"); ok && len(ops) == 1 {
			arr, isArr := in.(bson.A)
			if !isArr {
				return nil, false
			}
			var out []string
			for _, v := range arr {
				ids, ok := resolve(v)
				if !ok {
					return nil, false
				}
				out = append(out, ids...)
			}
			return out, true
		}
		return nil, false
	}
	return resolve(operand)
}

// planIndexPredicate maps one filter element onto an index lookup.
func planIndexPredicate(ix *fieldIndex, operand any) ([]string, bool) {
	ops, isDoc := operand.(bson.D)
	if !isDoc || !isOperatorDoc(ops) {
		// Implicit equality on an embedded-document operand still works:
		// the index stores whole-value encodings.
		return ix.lookupEq(operand), true
	}
	if eq, ok := ops.Get("$eq"); ok && len(ops) == 1 {
		return ix.lookupEq(eq), true
	}
	if in, ok := ops.Get("$in"); ok && len(ops) == 1 {
		arr, isArr := in.(bson.A)
		if !isArr {
			return nil, false
		}
		var out []string
		for _, v := range arr {
			out = append(out, ix.lookupEq(v)...)
		}
		return out, true
	}
	// Range predicates: combine any of $gt/$gte (lower) and $lt/$lte (upper).
	var lo, hi any
	hiIncl := false
	supported := true
	for _, op := range ops {
		switch op.Key {
		case "$gt", "$gte":
			lo = op.Value
		case "$lt":
			hi = op.Value
		case "$lte":
			hi, hiIncl = op.Value, true
		default:
			supported = false
		}
	}
	if !supported || (lo == nil && hi == nil) {
		return nil, false
	}
	return ix.lookupRange(lo, hi, hiIncl), true
}

// --- the document mutation path ---

// write is the one path by which a document changes: doc replaces whatever is
// stored under id, or, when doc is nil, id is deleted. Encoding happens
// outside the locks. Under the store's writeMu the stored document is read
// once; cond (nil means always) decides on it, a put is checked against the
// unique indexes, and only then is the effect logged and applied in place of
// the document just read; mode says whether to wait for the record's fsync
// (see syncMode). Nothing can change between that read and the apply
// — writeMu excludes every other writer — so the read needs no collection
// lock; c.mu is taken only to publish the change to readers. It reports
// whether the collection changed.
func (c *Collection) write(ctx context.Context, id any, doc bson.D, mode syncMode, cond Cond) (bool, error) {
	key, err := idKey(id)
	if err != nil {
		return false, err
	}
	op := Op{Kind: "delete", Coll: c.name, Id: id}
	var enc []byte
	if doc != nil {
		op = Op{Kind: "put", Coll: c.name, Doc: doc}
		if enc, err = bson.Marshal(doc); err != nil {
			return false, err
		}
	}
	var old bson.D
	return c.store.mutate(ctx, op, func() (bool, error) {
		old, _ = c.primary.Get(key)
		if cond != nil {
			if ok, err := cond(old); err != nil || !ok {
				return false, err
			}
		}
		if doc != nil {
			for _, ix := range c.indexes {
				if ix.wouldViolate(string(key), doc) {
					return false, fmt.Errorf("%w: unique index on %q", ErrDuplicate, ix.field)
				}
			}
		}
		return true, nil
	}, func(lsn uint64) error {
		return c.set(key, old, doc, enc, lsn)
	}, mode)
}

// blindPut redoes a put during recovery: doc goes under its own _id.
func (c *Collection) blindPut(doc bson.D, lsn uint64) error {
	id, ok := doc.Get("_id")
	if !ok {
		return fmt.Errorf("%w: recovered document missing _id", ErrBadId)
	}
	return c.blindSet(id, doc, lsn)
}

// blindSet is write without the decision: recovery (single-threaded WAL
// replay) redoes an effect over whatever is there.
func (c *Collection) blindSet(id any, doc bson.D, lsn uint64) error {
	key, err := idKey(id)
	if err != nil {
		return err
	}
	var enc []byte
	if doc != nil {
		if enc, err = bson.Marshal(doc); err != nil {
			return err
		}
	}
	old, _ := c.primary.Get(key)
	return c.set(key, old, doc, enc, lsn)
}

// set installs doc (encoded as enc; nil deletes) at key in place of old, the
// document stored there now (nil for none), keeps the secondary indexes in
// step, and tells the observer. Caller holds the store's writeMu or is in
// single-threaded recovery.
func (c *Collection) set(key []byte, old bson.D, doc bson.D, enc []byte, lsn uint64) error {
	if old == nil && doc == nil {
		return nil // deleting an absent document is a no-op on replay
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if doc != nil {
		err = c.primary.Set(key, doc, enc, lsn, old == nil)
	} else {
		err = c.primary.Delete(key, lsn)
	}
	if err != nil {
		return err
	}
	for _, ix := range c.indexes {
		if old != nil {
			ix.remove(string(key), old)
		}
		if doc != nil {
			ix.insert(string(key), doc)
		}
	}
	if c.observer != nil {
		c.observer(old, doc)
	}
	return nil
}

func (c *Collection) applyEnsureIndex(field string, unique bool, lsn uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.indexes[field]; exists {
		return nil
	}
	// Persist the definition so a restart can rebuild the index from table
	// state alone, even after the WAL that carried the "index" op has been
	// checkpointed away.
	if err := c.store.saveIndexDef(c.name, field, unique, lsn); err != nil {
		return err
	}
	c.buildIndexLocked(field, unique)
	return nil
}

// buildIndexLocked constructs a secondary index over current contents.
// Caller holds c.mu.
func (c *Collection) buildIndexLocked(field string, unique bool) {
	ix := newFieldIndex(field, unique)
	c.primary.Ascend(func(key []byte, doc bson.D) bool {
		ix.insert(string(key), doc)
		return true
	})
	c.indexes[field] = ix
}
