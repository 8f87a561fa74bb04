// Package sqlstore is the evaluation's second baseline (paper §6.1): a
// master-slave relational database storing unstructured data as BLOB rows,
// in the manner of the MySQL deployment the paper compares against. It
// reproduces the structural costs that motivated MyStore:
//
//   - one table with a primary-key B-tree index and a BLOB value column;
//   - a single table-level write lock (writes serialize);
//   - synchronous master→slave replication (a write completes only after
//     every reachable slave applied it);
//   - no partitioning: the master holds every row, so it cannot scale out.
package sqlstore

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mystore/internal/btree"
	"mystore/internal/rest"
)

// Row is one table row.
type Row struct {
	Key string // PRIMARY KEY
	Val []byte // BLOB
}

// table is the storage for one node (master or slave).
type table struct {
	mu   sync.RWMutex
	tree *btree.Tree // key -> Row
}

func newTable() *table { return &table{tree: btree.New()} }

func (t *table) get(key string) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.tree.Get([]byte(key))
	if !ok {
		return Row{}, false
	}
	return v.(Row), true
}

func (t *table) put(r Row) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tree.Set([]byte(r.Key), r)
}

func (t *table) delete(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tree.Delete([]byte(key))
}

func (t *table) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tree.Len()
}

// Store is a master with zero or more synchronous slaves.
type Store struct {
	writeLock sync.Mutex // the table-level lock writes contend on
	master    *table
	slaves    []*table

	// BeforeOp, when non-nil, runs before each node-level operation (node
	// 0 = master) so the failure framework can perturb the baseline the
	// same way it perturbs MyStore. An error on the master fails the
	// operation; an error on a slave fails the synchronous write.
	BeforeOp func(node int, op string) error
}

// New builds a master with the given number of slaves.
func New(slaves int) *Store {
	s := &Store{master: newTable()}
	for i := 0; i < slaves; i++ {
		s.slaves = append(s.slaves, newTable())
	}
	return s
}

// ErrReplication reports a synchronous replication failure.
var ErrReplication = errors.New("sqlstore: synchronous replication failed")

// Put inserts or updates a row; it returns only after every slave applied
// the write (synchronous replication), holding the table write lock
// throughout — the serialization MySQL's table locks impose on BLOB-heavy
// workloads.
func (s *Store) Put(_ context.Context, key string, val []byte) error {
	if key == "" {
		return errors.New("sqlstore: empty key")
	}
	s.writeLock.Lock()
	defer s.writeLock.Unlock()
	if s.BeforeOp != nil {
		if err := s.BeforeOp(0, "put"); err != nil {
			return fmt.Errorf("sqlstore: master: %w", err)
		}
	}
	row := Row{Key: key, Val: append([]byte(nil), val...)}
	s.master.put(row)
	for i, slave := range s.slaves {
		if s.BeforeOp != nil {
			if err := s.BeforeOp(i+1, "replicate"); err != nil {
				return fmt.Errorf("%w: slave %d: %v", ErrReplication, i+1, err)
			}
		}
		slave.put(row)
	}
	return nil
}

// Get reads a row, master first, falling back to slaves when the master is
// perturbed.
func (s *Store) Get(_ context.Context, key string) ([]byte, error) {
	for node := 0; node <= len(s.slaves); node++ {
		if s.BeforeOp != nil {
			if err := s.BeforeOp(node, "get"); err != nil {
				continue
			}
		}
		var t *table
		if node == 0 {
			t = s.master
		} else {
			t = s.slaves[node-1]
		}
		if row, ok := t.get(key); ok {
			return append([]byte(nil), row.Val...), nil
		}
		if node == 0 {
			return nil, fmt.Errorf("%w: %q", rest.ErrNotFound, key)
		}
	}
	return nil, errors.New("sqlstore: no reachable node")
}

// Delete removes a row everywhere, under the write lock.
func (s *Store) Delete(_ context.Context, key string) error {
	s.writeLock.Lock()
	defer s.writeLock.Unlock()
	if s.BeforeOp != nil {
		if err := s.BeforeOp(0, "delete"); err != nil {
			return fmt.Errorf("sqlstore: master: %w", err)
		}
	}
	s.master.delete(key)
	for i, slave := range s.slaves {
		if s.BeforeOp != nil {
			if err := s.BeforeOp(i+1, "replicate"); err != nil {
				return fmt.Errorf("%w: slave %d: %v", ErrReplication, i+1, err)
			}
		}
		slave.delete(key)
	}
	return nil
}
