// Package btree implements an in-memory B-tree keyed by byte slices, the
// ordered-index substrate under the document store's secondary indexes and
// the relational baseline's primary-key index. Keys are compared
// lexicographically (bytes.Compare); values are opaque.
//
// The tree is not safe for concurrent use; callers synchronize around it
// (the document store holds a per-collection lock).
package btree

import (
	"bytes"
)

// degree is the minimum number of children of an internal node. Each node
// holds between degree-1 and 2*degree-1 items, a reasonable trade between
// pointer chasing and copy cost for the key sizes indexes produce.
const degree = 32

const (
	maxItems = 2*degree - 1
	minItems = degree - 1
)

// Item is one key/value pair stored in the tree.
type Item struct {
	Key   []byte
	Value any
}

type node struct {
	items    []Item
	children []*node // nil for leaves
}

// Tree is an in-memory B-tree. The zero value is not usable; call New.
type Tree struct {
	root   *node
	length int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.length }

// Get returns the value stored at key and whether it was present.
func (t *Tree) Get(key []byte) (any, bool) {
	n := t.root
	for {
		i, found := n.search(key)
		if found {
			return n.items[i].Value, true
		}
		if n.children == nil {
			return nil, false
		}
		n = n.children[i]
	}
}

// search returns the index of the first item ≥ key and whether it equals key.
func (n *node) search(key []byte) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.items[mid].Key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && bytes.Equal(n.items[lo].Key, key) {
		return lo, true
	}
	return lo, false
}

// Set stores value at key, replacing any existing value. It reports whether
// the key was newly inserted.
func (t *Tree) Set(key []byte, value any) bool {
	if len(t.root.items) == maxItems {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.root.splitChild(0)
	}
	inserted := t.root.insert(keyCopy(key), value)
	if inserted {
		t.length++
	}
	return inserted
}

func keyCopy(k []byte) []byte {
	c := make([]byte, len(k))
	copy(c, k)
	return c
}

// splitChild splits the full child at index i, lifting its median into n.
func (n *node) splitChild(i int) {
	child := n.children[i]
	median := child.items[minItems]
	right := &node{
		items: append([]Item(nil), child.items[minItems+1:]...),
	}
	if child.children != nil {
		right.children = append([]*node(nil), child.children[minItems+1:]...)
		child.children = child.children[:minItems+1]
	}
	child.items = child.items[:minItems]

	n.items = append(n.items, Item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median

	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *node) insert(key []byte, value any) bool {
	i, found := n.search(key)
	if found {
		n.items[i].Value = value
		return false
	}
	if n.children == nil {
		n.items = append(n.items, Item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = Item{Key: key, Value: value}
		return true
	}
	if len(n.children[i].items) == maxItems {
		n.splitChild(i)
		switch c := bytes.Compare(key, n.items[i].Key); {
		case c == 0:
			n.items[i].Value = value
			return false
		case c > 0:
			i++
		}
	}
	return n.children[i].insert(key, value)
}

// Delete removes key and reports whether it was present.
func (t *Tree) Delete(key []byte) bool {
	if t.length == 0 {
		return false
	}
	deleted := t.root.delete(key)
	if len(t.root.items) == 0 && t.root.children != nil {
		t.root = t.root.children[0]
	}
	if deleted {
		t.length--
	}
	return deleted
}

func (n *node) delete(key []byte) bool {
	i, found := n.search(key)
	if n.children == nil {
		if !found {
			return false
		}
		copy(n.items[i:], n.items[i+1:])
		n.items = n.items[:len(n.items)-1]
		return true
	}
	if found {
		// Replace with predecessor from the left subtree, then delete the
		// predecessor from that subtree.
		n.ensureChildCanLose(i)
		// The target may have moved during rebalancing; re-search.
		i, found = n.search(key)
		if !found {
			return n.children[i].delete(key)
		}
		pred := n.children[i].max()
		n.items[i] = pred
		return n.children[i].delete(pred.Key)
	}
	n.ensureChildCanLose(i)
	i, _ = n.search(key)
	return n.children[i].delete(key)
}

func (n *node) max() Item {
	cur := n
	for cur.children != nil {
		cur = cur.children[len(cur.children)-1]
	}
	return cur.items[len(cur.items)-1]
}

// ensureChildCanLose guarantees children[i] holds more than minItems items,
// borrowing from a sibling or merging when necessary.
func (n *node) ensureChildCanLose(i int) {
	if i >= len(n.children) {
		i = len(n.children) - 1
	}
	child := n.children[i]
	if len(child.items) > minItems {
		return
	}
	if i > 0 && len(n.children[i-1].items) > minItems {
		// Borrow from the left sibling through the separator.
		left := n.children[i-1]
		child.items = append([]Item{n.items[i-1]}, child.items...)
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if left.children != nil {
			moved := left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
			child.children = append([]*node{moved}, child.children...)
		}
		return
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) > minItems {
		// Borrow from the right sibling through the separator.
		right := n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		copy(right.items, right.items[1:])
		right.items = right.items[:len(right.items)-1]
		if right.children != nil {
			moved := right.children[0]
			copy(right.children, right.children[1:])
			right.children = right.children[:len(right.children)-1]
			child.children = append(child.children, moved)
		}
		return
	}
	// Merge with a sibling around the separator.
	if i > 0 {
		i--
	}
	left, right := n.children[i], n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.children = append(left.children, right.children...)
	copy(n.items[i:], n.items[i+1:])
	n.items = n.items[:len(n.items)-1]
	copy(n.children[i+1:], n.children[i+2:])
	n.children = n.children[:len(n.children)-1]
}

// AscendRange calls fn for every item with lo ≤ key < hi in ascending order
// until fn returns false. A nil lo means from the start; a nil hi means to
// the end.
func (t *Tree) AscendRange(lo, hi []byte, fn func(Item) bool) {
	t.root.ascend(lo, hi, fn)
}

func (n *node) ascend(lo, hi []byte, fn func(Item) bool) bool {
	start := 0
	if lo != nil {
		start, _ = n.search(lo)
	}
	for i := start; i < len(n.items); i++ {
		if n.children != nil && !n.children[i].ascend(lo, hi, fn) {
			return false
		}
		if hi != nil && bytes.Compare(n.items[i].Key, hi) >= 0 {
			return false
		}
		if lo == nil || bytes.Compare(n.items[i].Key, lo) >= 0 {
			if !fn(n.items[i]) {
				return false
			}
		}
	}
	if n.children != nil {
		return n.children[len(n.items)].ascend(lo, hi, fn)
	}
	return true
}

// Min returns the smallest item, or a zero Item and false when empty.
func (t *Tree) Min() (Item, bool) {
	if t.length == 0 {
		return Item{}, false
	}
	n := t.root
	for n.children != nil {
		n = n.children[0]
	}
	return n.items[0], true
}

// Max returns the largest item, or a zero Item and false when empty.
func (t *Tree) Max() (Item, bool) {
	if t.length == 0 {
		return Item{}, false
	}
	return t.root.max(), true
}

// Height returns the number of levels in the tree; an empty tree has height 1.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; n.children != nil; n = n.children[0] {
		h++
	}
	return h
}
