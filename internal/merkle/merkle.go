// Package merkle implements the incrementally maintained hash trees behind
// MyStore's anti-entropy (Dynamo §4.7, Spinnaker's recovery catch-up): the
// 32-bit ring hash space is partitioned into a fixed number of leaf ranges,
// each leaf holds a commutative digest of the records whose key hash falls in
// it, and internal nodes combine their children. Two replicas compare trees
// top-down, exchanging O(log leaves) hashes per level, so a converged pair
// settles a round after a single root comparison instead of re-digesting
// every key.
//
// The leaf digest is the XOR of per-record identity hashes. XOR makes the
// digest incrementally maintainable in O(1) per mutation — apply a write by
// XOR-ing out the old record hash and XOR-ing in the new one — at the cost
// of cryptographic strength, which anti-entropy does not need: a collision
// merely delays one repair to the next divergence, it cannot lose data.
package merkle

import (
	"sync"
)

// DefaultLeafBits sizes a tree at 1<<10 = 1024 leaf ranges: 8 KiB of digest
// state per tree, a 10-level descent, and at paper scale (100k keys over 5
// nodes) ~100 shared keys per leaf — one leaf sync moves a small, targeted
// batch.
const DefaultLeafBits = 10

// fnv64 constants (FNV-1a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashString folds s into h with FNV-1a.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func hashByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime
	return h
}

func hashUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(v>>(8*i)))
	}
	return h
}

// RecordHash is the identity hash of one stored record version. Two replicas
// holding the same (key, ver, origin, deleted) contribute identical terms to
// their leaf digests; any difference — missing, stale, diverged tombstone —
// changes the XOR.
func RecordHash(key string, ver int64, origin string, deleted bool) uint64 {
	h := uint64(fnvOffset)
	h = hashString(h, key)
	h = hashByte(h, 0)
	h = hashUint64(h, uint64(ver))
	h = hashString(h, origin)
	d := byte(0)
	if deleted {
		d = 1
	}
	return hashByte(h, d)
}

// combine mixes two child hashes into their parent. Position matters (left
// vs right feed in order), so sibling swaps are visible.
func combine(left, right uint64) uint64 {
	h := uint64(fnvOffset)
	h = hashUint64(h, left)
	h = hashUint64(h, right)
	return h
}

// Tree is one incrementally maintained hash tree. It is safe for concurrent
// use; updates are O(1) (one XOR under a mutex) and node reads fold the
// covered leaves on demand — O(leaves/2^level), at most 1024 XORs for the
// root, which is independent of the number of keys.
type Tree struct {
	mu       sync.Mutex
	leafBits uint
	leaves   []uint64
	records  int64 // records currently folded in (diagnostics)
}

// New returns an empty tree with 1<<leafBits leaf ranges. leafBits outside
// [1, 24] takes DefaultLeafBits.
func New(leafBits int) *Tree {
	if leafBits < 1 || leafBits > 24 {
		leafBits = DefaultLeafBits
	}
	return &Tree{leafBits: uint(leafBits), leaves: make([]uint64, 1<<uint(leafBits))}
}

// LeafBits returns the tree's depth in levels below the root.
func (t *Tree) LeafBits() int { return int(t.leafBits) }

// Leaves returns the number of leaf ranges.
func (t *Tree) Leaves() int { return 1 << t.leafBits }

// Leaf maps a 32-bit key hash to its leaf index: the high leafBits bits, so
// a leaf covers one contiguous range of the hash ring.
func (t *Tree) Leaf(keyHash uint32) uint32 {
	return keyHash >> (32 - t.leafBits)
}

// Add folds one record hash into the leaf covering keyHash.
func (t *Tree) Add(keyHash uint32, recordHash uint64) {
	t.mu.Lock()
	t.leaves[t.Leaf(keyHash)] ^= recordHash
	t.records++
	t.mu.Unlock()
}

// Remove folds one record hash out (XOR is its own inverse).
func (t *Tree) Remove(keyHash uint32, recordHash uint64) {
	t.mu.Lock()
	t.leaves[t.Leaf(keyHash)] ^= recordHash
	t.records--
	t.mu.Unlock()
}

// Replace swaps oldHash for newHash in keyHash's leaf: the O(1) per-apply
// update the docstore observer drives on every record write.
func (t *Tree) Replace(keyHash uint32, oldHash, newHash uint64) {
	t.mu.Lock()
	t.leaves[t.Leaf(keyHash)] ^= oldHash ^ newHash
	t.mu.Unlock()
}

// Records returns how many records are currently folded in.
func (t *Tree) Records() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.records
}

// Node returns the hash of the node at (level, index), where level 0 is the
// root covering everything and level LeafBits is the leaf row. An index past
// the row's width returns 0.
func (t *Tree) Node(level int, index uint32) uint64 {
	if level < 0 {
		level = 0
	}
	if level > int(t.leafBits) {
		level = int(t.leafBits)
	}
	if index >= 1<<uint(level) {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nodeLocked(uint(level), index)
}

// Nodes returns the hashes at the given (level, index) pairs in one lock
// acquisition — the descent handler's batch read.
func (t *Tree) Nodes(level int, indexes []uint32) []uint64 {
	if level < 0 {
		level = 0
	}
	if level > int(t.leafBits) {
		level = int(t.leafBits)
	}
	out := make([]uint64, len(indexes))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, idx := range indexes {
		if idx < 1<<uint(level) {
			out[i] = t.nodeLocked(uint(level), idx)
		}
	}
	return out
}

// Root returns the root hash. Two trees over the same record set have equal
// roots; a converged anti-entropy round costs exactly this one comparison.
func (t *Tree) Root() uint64 { return t.Node(0, 0) }

// nodeLocked folds the leaves covered by (level, index) up to one hash.
// Caller holds mu.
func (t *Tree) nodeLocked(level uint, index uint32) uint64 {
	span := uint32(1) << (t.leafBits - level)
	lo := index * span
	if span == 1 {
		return t.leaves[lo]
	}
	// Fold bottom-up: row k holds the subtree's nodes at depth k below this
	// node. Work in place over a copy-free window using pairwise combines.
	return t.foldLocked(lo, span)
}

// foldLocked combines leaves[lo:lo+span] pairwise into a single hash without
// allocating per call beyond one scratch row.
func (t *Tree) foldLocked(lo, span uint32) uint64 {
	// span is a power of two ≥ 2.
	row := make([]uint64, span)
	copy(row, t.leaves[lo:lo+span])
	for width := span; width > 1; width /= 2 {
		for i := uint32(0); i < width/2; i++ {
			row[i] = combine(row[2*i], row[2*i+1])
		}
	}
	return row[0]
}

// LeafRange returns the half-open key-hash range [lo, hi) a leaf covers
// (hi == 0 means wrap to 2^32, i.e. the top leaf's exclusive bound).
func (t *Tree) LeafRange(leaf uint32) (lo, hi uint32) {
	width := uint32(1) << (32 - t.leafBits)
	return leaf * width, (leaf + 1) * width
}
