package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

func TestSetGet(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		if !tr.Set(key(i), i) {
			t.Fatalf("Set(%d) reported existing key", i)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := tr.Get(key(i))
		if !ok || v != i {
			t.Fatalf("Get(%d) = %v, %v", i, v, ok)
		}
	}
	if _, ok := tr.Get([]byte("absent")); ok {
		t.Fatal("Get(absent) = true")
	}
}

func TestSetOverwrite(t *testing.T) {
	tr := New()
	tr.Set([]byte("k"), 1)
	if tr.Set([]byte("k"), 2) {
		t.Fatal("overwrite reported as insert")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", tr.Len())
	}
	if v, _ := tr.Get([]byte("k")); v != 2 {
		t.Fatalf("Get = %v, want 2", v)
	}
}

func TestSetCopiesKey(t *testing.T) {
	tr := New()
	k := []byte("mutable")
	tr.Set(k, 1)
	k[0] = 'X'
	if _, ok := tr.Get([]byte("mutable")); !ok {
		t.Fatal("tree was affected by caller mutating the key slice")
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Set(key(i), i)
	}
	// Delete odd keys.
	for i := 1; i < n; i += 2 {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(key(i))
		if want := i%2 == 0; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
	}
	if tr.Delete([]byte("absent")) {
		t.Fatal("Delete(absent) = true")
	}
	if (New()).Delete([]byte("x")) {
		t.Fatal("Delete on empty tree = true")
	}
}

func TestDeleteAllRandomOrder(t *testing.T) {
	tr := New()
	const n = 3000
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(n)
	for _, i := range perm {
		tr.Set(key(i), i)
	}
	perm = rng.Perm(n)
	for idx, i := range perm {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) failed at step %d", i, idx)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
}

func TestAscendOrder(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	for _, i := range rng.Perm(500) {
		tr.Set(key(i), i)
	}
	var got []string
	tr.AscendRange(nil, nil, func(it Item) bool {
		got = append(got, string(it.Key))
		return true
	})
	if len(got) != 500 {
		t.Fatalf("AscendRange(nil, nil) visited %d items, want 500", len(got))
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("AscendRange(nil, nil) not in sorted order")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Set(key(i), i)
	}
	count := 0
	tr.AscendRange(nil, nil, func(Item) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d, want 10", count)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Set(key(i), i)
	}
	var got []int
	tr.AscendRange(key(10), key(20), func(it Item) bool {
		got = append(got, it.Value.(int))
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("AscendRange[10,20) = %v", got)
	}
	// Open-ended ranges.
	var tail []int
	tr.AscendRange(key(95), nil, func(it Item) bool {
		tail = append(tail, it.Value.(int))
		return true
	})
	if len(tail) != 5 {
		t.Fatalf("AscendRange[95,∞) len = %d, want 5", len(tail))
	}
	var head []int
	tr.AscendRange(nil, key(5), func(it Item) bool {
		head = append(head, it.Value.(int))
		return true
	})
	if len(head) != 5 {
		t.Fatalf("AscendRange(-∞,5) len = %d, want 5", len(head))
	}
}

func TestMinMaxHeight(t *testing.T) {
	tr := New()
	if _, ok := tr.min(); ok {
		t.Fatal("Min on empty = true")
	}
	if _, ok := tr.max(); ok {
		t.Fatal("Max on empty = true")
	}
	if tr.height() != 1 {
		t.Fatalf("empty Height = %d, want 1", tr.height())
	}
	for i := 0; i < 10000; i++ {
		tr.Set(key(i), i)
	}
	mn, _ := tr.min()
	mx, _ := tr.max()
	if !bytes.Equal(mn.Key, key(0)) || !bytes.Equal(mx.Key, key(9999)) {
		t.Fatalf("Min/Max = %s/%s", mn.Key, mx.Key)
	}
	if h := tr.height(); h < 2 || h > 5 {
		t.Fatalf("Height = %d for 10000 keys, want small", h)
	}
}

// TestMatchesReferenceMap drives the tree and a map with the same random
// operation stream and checks they agree at every step.
func TestMatchesReferenceMap(t *testing.T) {
	tr := New()
	ref := map[string]int{}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 50000; step++ {
		k := key(rng.Intn(800))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Int()
			insertedTree := tr.Set(k, v)
			_, existed := ref[string(k)]
			if insertedTree == existed {
				t.Fatalf("step %d: Set insert=%v but map existed=%v", step, insertedTree, existed)
			}
			ref[string(k)] = v
		case 2:
			delTree := tr.Delete(k)
			_, existed := ref[string(k)]
			if delTree != existed {
				t.Fatalf("step %d: Delete=%v but map existed=%v", step, delTree, existed)
			}
			delete(ref, string(k))
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len=%d ref=%d", step, tr.Len(), len(ref))
		}
	}
	for k, v := range ref {
		got, ok := tr.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("final: Get(%s) = %v,%v want %v", k, got, ok, v)
		}
	}
}

func TestSortedOrderProperty(t *testing.T) {
	f := func(keys [][]byte) bool {
		tr := New()
		uniq := map[string]bool{}
		for _, k := range keys {
			tr.Set(k, true)
			uniq[string(k)] = true
		}
		if tr.Len() != len(uniq) {
			return false
		}
		var prev []byte
		ok := true
		first := true
		tr.AscendRange(nil, nil, func(it Item) bool {
			if !first && bytes.Compare(prev, it.Key) >= 0 {
				ok = false
				return false
			}
			prev = append(prev[:0], it.Key...)
			first = false
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Set(key(i), i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	for i := 0; i < 100000; i++ {
		tr.Set(key(i), i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % 100000))
	}
}

// min returns the smallest item, or a zero Item and false when empty.
func (t *Tree) min() (Item, bool) {
	if t.length == 0 {
		return Item{}, false
	}
	n := t.root
	for n.children != nil {
		n = n.children[0]
	}
	return n.items[0], true
}

// max returns the largest item, or a zero Item and false when empty.
func (t *Tree) max() (Item, bool) {
	if t.length == 0 {
		return Item{}, false
	}
	return t.root.max(), true
}

// height returns the number of levels in the tree; an empty tree has height 1.
func (t *Tree) height() int {
	h := 1
	for n := t.root; n.children != nil; n = n.children[0] {
		h++
	}
	return h
}
