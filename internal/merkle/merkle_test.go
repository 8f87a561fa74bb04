package merkle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestEmptyTreesAgree(t *testing.T) {
	a, b := New(10), New(10)
	if a.Root() != b.Root() {
		t.Fatalf("empty roots differ: %x vs %x", a.Root(), b.Root())
	}
	if len(a.Row()) != 8<<10 {
		t.Fatalf("row is %d bytes, want %d", len(a.Row()), 8<<10)
	}
}

// leafOf reads leaf i's digest out of a row.
func leafOf(row []byte, i int) uint64 { return binary.LittleEndian.Uint64(row[8*i:]) }

func TestIncrementalMatchesRebuild(t *testing.T) {
	// Applying a mutation history incrementally (adds, replaces, removes)
	// must land on the same row as rebuilding from the final state.
	rng := rand.New(rand.NewSource(42))
	inc := New(8)
	type rec struct {
		ver  int64
		hash uint64
	}
	state := map[string]rec{}
	keyHash := func(k string) uint32 { return uint32(hashString(fnvOffset, k)) }
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(400))
		switch {
		case rng.Intn(10) == 0: // delete
			if old, ok := state[k]; ok {
				inc.Replace(keyHash(k), old.hash, 0)
				delete(state, k)
			}
		default: // write a new version
			ver := int64(i + 1)
			h := RecordHash(k, ver, "origin-a", false)
			inc.Replace(keyHash(k), state[k].hash, h)
			state[k] = rec{ver: ver, hash: h}
		}
	}
	rebuilt := New(8)
	for k, r := range state {
		rebuilt.Replace(keyHash(k), 0, r.hash)
	}
	if inc.Root() != rebuilt.Root() {
		t.Fatalf("incremental root %x != rebuilt root %x", inc.Root(), rebuilt.Root())
	}
	if !bytes.Equal(inc.Row(), rebuilt.Row()) {
		t.Fatal("incremental row differs from the rebuilt row")
	}
}

func TestOneRecordDivergesOneLeaf(t *testing.T) {
	// Two trees differing in exactly one record must disagree on exactly
	// that record's leaf, and on the root.
	a, b := New(10), New(10)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("rec-%05d", i)
		h := RecordHash(k, int64(rng.Intn(1000)), "o", false)
		kh := uint32(hashString(fnvOffset, k))
		a.Replace(kh, 0, h)
		b.Replace(kh, 0, h)
	}
	if a.Root() != b.Root() {
		t.Fatal("equal record sets have different roots")
	}
	divergedKey := "rec-00042"
	kh := uint32(hashString(fnvOffset, divergedKey))
	b.Replace(kh, 0, RecordHash(divergedKey, 99999, "other", false)) // extra version on b

	if a.Root() == b.Root() {
		t.Fatal("a differing record left the root unchanged")
	}
	diverged, err := a.Diff(b.Row(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(diverged) != 1 || diverged[0] != a.Leaf(kh) {
		t.Fatalf("diverged leaves %v, want exactly [%d]", diverged, a.Leaf(kh))
	}
}

func TestDiffMatchesRow(t *testing.T) {
	// Diff against a peer's row names the leaves a leaf-by-leaf comparison
	// of the two rows finds, in order, up to its limit; a row of the wrong
	// length is an error.
	a, b := New(6), New(6)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		kh, h := rng.Uint32(), rng.Uint64()
		a.Replace(kh, 0, h)
		if i%3 != 0 {
			b.Replace(kh, 0, h)
		}
	}
	ra, rb := a.Row(), b.Row()
	var want []uint32
	for i := 0; i < len(ra)/8; i++ {
		if leafOf(ra, i) != leafOf(rb, i) {
			want = append(want, uint32(i))
		}
	}
	if len(want) < 10 {
		t.Fatalf("only %d leaves differ; the test needs more", len(want))
	}
	got, err := a.Diff(rb, 1<<10)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("Diff = %v, %v; want %v", got, err, want)
	}
	if got, _ := a.Diff(rb, 5); !slices.Equal(got, want[:5]) {
		t.Fatalf("Diff limited to 5 = %v, want %v", got, want[:5])
	}
	if got, _ := a.Diff(ra, 5); len(got) != 0 {
		t.Fatalf("Diff against its own row = %v, want none", got)
	}
	for _, bad := range [][]byte{nil, rb[:len(rb)-1], append(rb[:len(rb):len(rb)], 0)} {
		if _, err := a.Diff(bad, 5); err == nil {
			t.Fatalf("a %d-byte row was accepted", len(bad))
		}
	}
}

func TestOrderIndependence(t *testing.T) {
	// XOR leaves commute: insertion order must not matter.
	a, b := New(8), New(8)
	hashes := make([]uint64, 300)
	keys := make([]uint32, 300)
	rng := rand.New(rand.NewSource(11))
	for i := range hashes {
		hashes[i] = rng.Uint64()
		keys[i] = rng.Uint32()
		a.Replace(keys[i], 0, hashes[i])
	}
	perm := rng.Perm(len(hashes))
	for _, i := range perm {
		b.Replace(keys[i], 0, hashes[i])
	}
	if a.Root() != b.Root() {
		t.Fatalf("order changed the root: %x vs %x", a.Root(), b.Root())
	}
}

func TestConcurrentUpdatesRace(t *testing.T) {
	// Hammer a tree with concurrent writers and readers; -race is the real
	// assertion, the final root equality the functional one.
	tr := New(10)
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				k := uint32(rng.Intn(1 << 16))
				tr.Replace(k<<16, uint64(w*perWriter+i), uint64(w*perWriter+i+1))
				if i%64 == 0 {
					tr.Root()
					tr.Row()
				}
			}
		}(w)
	}
	wg.Wait()
	// Each writer net-applied XOR of (first, last+...) pairs; recompute the
	// expected tree serially.
	want := New(10)
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWriter; i++ {
			k := uint32(rng.Intn(1 << 16))
			want.Replace(k<<16, uint64(w*perWriter+i), uint64(w*perWriter+i+1))
		}
	}
	if tr.Root() != want.Root() {
		t.Fatalf("concurrent root %x != serial root %x", tr.Root(), want.Root())
	}
}

func BenchmarkReplace(b *testing.B) {
	tr := New(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Replace(uint32(i), uint64(i), uint64(i+1))
	}
}

func BenchmarkRoot(b *testing.B) {
	tr := New(10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		tr.Replace(rng.Uint32(), 0, rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Root()
	}
}
