// Package ring implements the consistent-hashing layer that routes MyStore
// keys to storage nodes: a Ketama-style MD5 ring with weighted virtual
// nodes (paper §5.2.1). Each physical node is expanded into a number of
// virtual points proportional to its capacity ("more powerful means more
// virtual nodes"); a key is owned by the first virtual point clockwise from
// the key's hash, and a record's N replicas live on the first N *distinct
// physical* nodes encountered walking clockwise (§5.2.2).
//
// The package also provides the classic `hash(X) mod N` placement (paper
// Eq. 2) as a baseline for the ablation benches that measure how much data
// each scheme remaps when membership changes.
package ring

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// DefaultVNodesPerWeight is how many virtual points one unit of node weight
// contributes. 100 points per weight unit gives <5% load imbalance at the
// cluster sizes the paper evaluates (5 nodes).
const DefaultVNodesPerWeight = 100

// Node is a physical storage node participating in the ring.
type Node struct {
	// ID uniquely identifies the node (MyStore uses the host address).
	ID string
	// Weight scales the number of virtual nodes; it reflects the physical
	// node's capacity. Weight 0 is treated as 1.
	Weight int
}

func (n Node) vnodes(perWeight int) int {
	w := n.Weight
	if w <= 0 {
		w = 1
	}
	return w * perWeight
}

// point is one virtual node position on the ring.
type point struct {
	hash uint32
	node string
}

// Ring is a consistent-hash ring. It is safe for concurrent use.
type Ring struct {
	mu        sync.RWMutex
	perWeight int
	nodes     map[string]Node
	points    []point // sorted by hash, ties broken by node id
}

// Option configures a Ring.
type Option func(*Ring)

// WithVNodesPerWeight overrides the virtual-node multiplier.
func WithVNodesPerWeight(n int) Option {
	return func(r *Ring) {
		if n > 0 {
			r.perWeight = n
		}
	}
}

// New returns an empty ring.
func New(opts ...Option) *Ring {
	r := &Ring{perWeight: DefaultVNodesPerWeight, nodes: make(map[string]Node)}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Hash is the Ketama-style key hash: the first four bytes of MD5, little
// endian. Both keys and virtual-node positions use it, mapping everything
// onto the same 32-bit circle.
func Hash(key string) uint32 {
	sum := md5.Sum([]byte(key))
	return binary.LittleEndian.Uint32(sum[0:4])
}

// vnodeLabel derives the position label of a node's i-th virtual node. The
// virtual node's position "is decided by the physical node's key" (§5.2.1).
func vnodeLabel(nodeID string, i int) string {
	return fmt.Sprintf("%s#%d", nodeID, i)
}

// Errors returned by the ring.
var (
	ErrNodeExists  = errors.New("ring: node already present")
	ErrNodeUnknown = errors.New("ring: node not present")
	ErrEmpty       = errors.New("ring: no nodes")
)

// AddNode inserts a physical node and its virtual points.
func (r *Ring) AddNode(n Node) error {
	if n.ID == "" {
		return errors.New("ring: empty node id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[n.ID]; ok {
		return ErrNodeExists
	}
	r.nodes[n.ID] = n
	for i := 0; i < n.vnodes(r.perWeight); i++ {
		r.points = append(r.points, point{hash: Hash(vnodeLabel(n.ID, i)), node: n.ID})
	}
	r.sortLocked()
	return nil
}

// RemoveNode removes a physical node and all its virtual points.
func (r *Ring) RemoveNode(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[id]; !ok {
		return ErrNodeUnknown
	}
	delete(r.nodes, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return nil
}

func (r *Ring) sortLocked() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Nodes returns the physical nodes currently in the ring.
func (r *Ring) Nodes() []Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of physical nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Contains reports whether the node is in the ring.
func (r *Ring) Contains(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.nodes[id]
	return ok
}

// Primary returns the physical node owning key: the node of the first
// virtual point at or clockwise after the key's hash (paper Eq. 1).
func (r *Ring) Primary(key string) (string, error) {
	owners, err := r.Successors(key, 1)
	if err != nil {
		return "", err
	}
	return owners[0], nil
}

// Successors returns the first n distinct physical nodes walking clockwise
// from key's hash: the replica set for the key (§5.2.2, "these nodes are
// physical nodes"). If n exceeds the number of physical nodes, all nodes
// are returned in walk order.
func (r *Ring) Successors(key string, n int) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.successorsFromLocked(Hash(key), n)
}

// SuccessorsAt returns the first n distinct physical nodes walking clockwise
// from an explicit ring-hash position. The consensus tier uses it to derive
// the replica set of a hash range from the range's start position, the same
// walk Successors performs from a key's hash.
func (r *Ring) SuccessorsAt(h uint32, n int) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.successorsFromLocked(h, n)
}

// successorsFromLocked walks clockwise from hash h collecting distinct
// physical nodes. Caller holds mu.
func (r *Ring) successorsFromLocked(h uint32, n int) ([]string, error) {
	if len(r.points) == 0 {
		return nil, ErrEmpty
	}
	if n <= 0 {
		n = 1
	}
	// First point with hash >= h; wraps to 0.
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(idx+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out, nil
}

// Clone returns an independent copy of the ring, used to compute membership
// diffs (who owns what before vs after a change) without locking the live
// ring for the duration.
func (r *Ring) Clone() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Ring{perWeight: r.perWeight, nodes: make(map[string]Node, len(r.nodes))}
	for id, n := range r.nodes {
		c.nodes[id] = n
	}
	c.points = append([]point(nil), r.points...)
	return c
}
