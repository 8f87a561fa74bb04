package experiments

import (
	"errors"
	"fmt"
	"sync"

	"mystore/internal/bson"
	"mystore/internal/docstore"
)

// masterSlave is the "simple master/slave mechanism" the paper attributes to
// stock MongoDB and uses as the clustered baseline ("MongoDB is configured
// to be master-slave mode using three physical nodes", Fig 17). All writes
// go to the single master, which ships each document to every slave in
// master order. There is no failover: when the master is unreachable writes
// fail, which is exactly the availability weakness the paper's NWR layer
// removes.
//
// beforeOp lets the failure-injection framework perturb individual node
// operations; an error on a slave queues the document for catch-up, an error
// on the master fails the write.
type masterSlave struct {
	mu      sync.Mutex // orders master writes and shipping, so slaves apply in master order
	master  *docstore.Store
	slaves  []*docstore.Store
	pending [][]bson.D // per-slave catch-up queues, in master order

	// beforeOp, when non-nil, runs before every node-level operation. Node 0
	// is the master; slaves are 1..len(slaves).
	beforeOp func(node int, kind string) error
}

const masterSlaveColl = "records"

var errMasterDown = errors.New("experiments: master unavailable")

// newMasterSlave opens a master and the given number of slaves, each a
// scratch store.
func newMasterSlave(slaves int) (*masterSlave, error) {
	ms := &masterSlave{pending: make([][]bson.D, slaves)}
	var err error
	if ms.master, err = docstore.Open(docstore.Options{}); err != nil {
		return nil, err
	}
	for i := 0; i < slaves; i++ {
		s, err := docstore.Open(docstore.Options{})
		if err != nil {
			ms.Close()
			return nil, err
		}
		ms.slaves = append(ms.slaves, s)
	}
	return ms, nil
}

// Close closes every store.
func (ms *masterSlave) Close() {
	ms.master.Close()
	for _, s := range ms.slaves {
		s.Close()
	}
}

// Put inserts or replaces doc on the master and ships it to the slaves.
func (ms *masterSlave) Put(doc bson.D) error {
	if ms.beforeOp != nil {
		if err := ms.beforeOp(0, "put"); err != nil {
			return fmt.Errorf("%w: %v", errMasterDown, err)
		}
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if _, err := ms.master.C(masterSlaveColl).Upsert(doc); err != nil {
		return err
	}
	for i := range ms.pending {
		ms.pending[i] = append(ms.pending[i], doc)
	}
	ms.flushLocked()
	return nil
}

// flushLocked delivers queued documents to each slave until a failure stops
// that slave's queue (order must be preserved per slave).
func (ms *masterSlave) flushLocked() {
	for i, slave := range ms.slaves {
		q := ms.pending[i]
		n := 0
		for _, doc := range q {
			if ms.beforeOp != nil && ms.beforeOp(i+1, "replicate") != nil {
				break
			}
			if _, err := slave.C(masterSlaveColl).Upsert(doc); err != nil {
				break
			}
			n++
		}
		ms.pending[i] = q[n:]
	}
}

// CatchUp retries delivery of queued documents, e.g. after a failure clears.
func (ms *masterSlave) CatchUp() {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.flushLocked()
}

// Get reads id from the first reachable node, master first — the
// master/slave read path MongoDB drivers of the era used.
func (ms *masterSlave) Get(id any) (bson.D, bool, error) {
	for node, store := range append([]*docstore.Store{ms.master}, ms.slaves...) {
		if ms.beforeOp != nil && ms.beforeOp(node, "get") != nil {
			continue
		}
		if doc, ok := store.C(masterSlaveColl).Get(id); ok {
			return doc, true, nil
		}
		// A reachable node that lacks the document answers authoritatively
		// only if it is the master; a lagging slave may simply not have it
		// yet.
		if node == 0 {
			return nil, false, nil
		}
	}
	return nil, false, errors.New("experiments: no reachable replica")
}
