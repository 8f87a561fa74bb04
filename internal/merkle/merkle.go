// Package merkle implements the incrementally maintained leaf rows behind
// MyStore's anti-entropy (Dynamo §4.7, Spinnaker's recovery catch-up): the
// 32-bit ring hash space is partitioned into a fixed number of leaf ranges,
// and each leaf holds a commutative digest of the records whose key hash
// falls in it. Two replicas compare a position-sensitive hash of their rows
// first, so a converged pair settles a round after a single root
// comparison; a diverged pair ships one whole row (8 KiB at the default
// size) and compares it leaf by leaf. Dynamo's descent through internal
// nodes only pays off when a row is too large to send whole, and a row of
// 2^10 leaves never is.
//
// The leaf digest is the XOR of per-record identity hashes. XOR makes the
// digest incrementally maintainable in O(1) per mutation — apply a write by
// XOR-ing out the old record hash and XOR-ing in the new one — at the cost
// of cryptographic strength, which anti-entropy does not need: a collision
// merely delays one repair to the next divergence, it cannot lose data.
package merkle

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// DefaultLeafBits sizes a tree at 1<<10 = 1024 leaf ranges: an 8 KiB row,
// and at paper scale (100k keys over 5 nodes) ~100 shared keys per leaf —
// one leaf sync moves a small, targeted batch.
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

// Tree is one incrementally maintained leaf row. It is safe for concurrent
// use; updates are O(1) (one XOR under a mutex), and Root and Row read the
// whole row — 1024 leaves at the default size, independent of the number of
// keys.
type Tree struct {
	mu       sync.Mutex
	leafBits uint
	leaves   []uint64
}

// New returns an empty tree with 1<<leafBits leaf ranges. leafBits outside
// [1, 24] takes DefaultLeafBits.
func New(leafBits int) *Tree {
	if leafBits < 1 || leafBits > 24 {
		leafBits = DefaultLeafBits
	}
	return &Tree{leafBits: uint(leafBits), leaves: make([]uint64, 1<<uint(leafBits))}
}

// Leaf maps a 32-bit key hash to its leaf index: the high leafBits bits, so
// a leaf covers one contiguous range of the hash ring.
func (t *Tree) Leaf(keyHash uint32) uint32 {
	return keyHash >> (32 - t.leafBits)
}

// Replace swaps oldHash for newHash in keyHash's leaf: the O(1) per-apply
// update the docstore observer drives on every record write. A zero hash
// stands for no record, so Replace(kh, 0, h) adds h and Replace(kh, h, 0)
// removes it (XOR is its own inverse).
func (t *Tree) Replace(keyHash uint32, oldHash, newHash uint64) {
	t.mu.Lock()
	t.leaves[t.Leaf(keyHash)] ^= oldHash ^ newHash
	t.mu.Unlock()
}

// Root hashes the row in leaf order. Two trees over the same record set have
// equal roots; a converged anti-entropy round costs exactly this one
// comparison.
func (t *Tree) Root() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := uint64(fnvOffset)
	for _, l := range t.leaves {
		h = hashUint64(h, l)
	}
	return h
}

// Row copies the row out in its wire form: leaf i's digest, little-endian,
// at bytes [8i, 8i+8).
func (t *Tree) Row() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := make([]byte, 0, 8*len(t.leaves))
	for _, l := range t.leaves {
		row = binary.LittleEndian.AppendUint64(row, l)
	}
	return row
}

// Diff compares the tree against a peer's Row and returns the indexes of the
// first limit leaves that differ, in leaf order. A row of the wrong length
// is an error.
func (t *Tree) Diff(row []byte, limit int) ([]uint32, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(row) != 8*len(t.leaves) {
		return nil, fmt.Errorf("merkle: peer row is %d bytes, want %d", len(row), 8*len(t.leaves))
	}
	var diverged []uint32
	for i, l := range t.leaves {
		if len(diverged) == limit {
			break
		}
		if binary.LittleEndian.Uint64(row[8*i:]) != l {
			diverged = append(diverged, uint32(i))
		}
	}
	return diverged, nil
}
