package docstore

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mystore/internal/bson"
	"mystore/internal/wal"
)

// TestConcurrentWritePathReplayEquivalence is the lock-split property test:
// 64 goroutines hammer a durable store with inserts, updates and deletes;
// afterwards the store is crashed, so no close flushes its memtable, and
// reopened so its state is rebuilt purely from WAL replay. The replayed state must match the live in-memory state
// exactly — the WAL-order == apply-order invariant — and the WAL must hold
// every committed op exactly once.
func TestConcurrentWritePathReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WAL: wal.Options{SyncEveryAppend: true}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	const writers = 64
	const opsPerWriter = 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			coll := s.C(fmt.Sprintf("coll-%d", w%4))
			for i := 0; i < opsPerWriter; i++ {
				id := fmt.Sprintf("w%d-doc%d", w, i)
				doc := bson.D{{Key: "_id", Value: id}, {Key: "n", Value: int64(i)}}
				switch i % 5 {
				case 0, 1, 2: // insert
					if _, err := coll.Insert(doc); err != nil {
						t.Errorf("Insert %s: %v", id, err)
						return
					}
				case 3: // update the doc inserted at i-1
					prev := fmt.Sprintf("w%d-doc%d", w, i-1)
					upd := bson.D{{Key: "_id", Value: prev}, {Key: "n", Value: int64(-i)}}
					if err := coll.Update(upd); err != nil {
						t.Errorf("Update %s: %v", prev, err)
						return
					}
				case 4: // delete the doc inserted at i-2
					prev := fmt.Sprintf("w%d-doc%d", w, i-2)
					if _, err := coll.Delete(prev); err != nil {
						t.Errorf("Delete %s: %v", prev, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	live := dumpStore(t, s)
	s.Crash()

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	if got := r.ReplayedOps(); got != writers*opsPerWriter {
		t.Fatalf("replayed %d WAL records, want %d (one per committed op)", got, writers*opsPerWriter)
	}
	replayed := dumpStore(t, r)

	if len(replayed) != len(live) {
		t.Fatalf("replayed %d collections, want %d", len(replayed), len(live))
	}
	for coll, docs := range live {
		rdocs, ok := replayed[coll]
		if !ok {
			t.Fatalf("collection %s missing after replay", coll)
		}
		if len(rdocs) != len(docs) {
			t.Fatalf("collection %s: replayed %d docs, want %d", coll, len(rdocs), len(docs))
		}
		for id, enc := range docs {
			if rdocs[id] != enc {
				t.Fatalf("collection %s doc %s diverged after replay", coll, id)
			}
		}
	}
}

// dumpStore renders every collection as id -> canonical encoded doc.
func dumpStore(t *testing.T, s *Store) map[string]map[string]string {
	t.Helper()
	out := map[string]map[string]string{}
	for _, name := range s.Collections() {
		docs, err := s.C(name).Find(nil, FindOptions{})
		if err != nil {
			t.Fatalf("Find %s: %v", name, err)
		}
		m := map[string]string{}
		for _, d := range docs {
			id, _ := d.Get("_id")
			enc, err := bson.Marshal(d)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			m[fmt.Sprint(id)] = string(enc)
		}
		out[name] = m
	}
	return out
}

// TestConcurrentDuplicateInsertsOneWinner: racing inserts of the same _id
// must produce exactly one success, and the WAL must never hold the loser
// (replay would otherwise diverge).
func TestConcurrentDuplicateInsertsOneWinner(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WAL: wal.Options{SyncEveryAppend: true}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const racers = 32
	var wins, dups int
	var mu sync.Mutex
	var wg sync.WaitGroup
	doc := bson.D{{Key: "_id", Value: "contested"}, {Key: "v", Value: int64(1)}}
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.C("c").Insert(doc)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				wins++
			} else {
				dups++
			}
		}()
	}
	wg.Wait()
	if wins != 1 || dups != racers-1 {
		t.Fatalf("wins=%d dups=%d, want 1/%d", wins, dups, racers-1)
	}
	s.Crash() // no flush: the reopen replays the WAL
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen (losing insert leaked into the WAL?): %v", err)
	}
	defer r.Close()
	if n := r.C("c").Len(); n != 1 {
		t.Fatalf("replayed %d docs, want 1", n)
	}
}

// countingPrimary counts the reads a mutation makes of its primary index.
type countingPrimary struct {
	primaryStore
	gets int
}

func (p *countingPrimary) Get(key []byte) (bson.D, bool) {
	p.gets++
	return p.primaryStore.Get(key)
}

// TestMutationsProbeOnce: every document mutation — accepted or refused, key
// present or not — reads the stored document exactly once, under the write
// lock, and decides and applies on that one read; the store logs exactly the
// mutations that changed it.
func TestMutationsProbeOnce(t *testing.T) {
	t.Run("lsm", func(t *testing.T) {
		s, err := Open(Options{Dir: t.TempDir(), Storage: testTuning()})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c := s.C("c")
		if err := c.EnsureIndex("v", true); err != nil {
			t.Fatal(err)
		}
		counter := &countingPrimary{primaryStore: c.primary}
		c.primary = counter
		doc := func(id string, v int64) bson.D {
			return bson.D{{Key: "_id", Value: id}, {Key: "v", Value: v}}
		}
		ctx := context.Background()
		yes := func(bson.D) (bool, error) { return true, nil }
		no := func(bson.D) (bool, error) { return false, nil }
		for _, step := range []struct {
			name string
			do   func() (bool, error)
			want bool // the collection changed
		}{
			{"insert, absent", func() (bool, error) { _, err := c.Insert(doc("a", 1)); return err == nil, nil }, true},
			{"insert, present", func() (bool, error) { _, err := c.Insert(doc("a", 2)); return err == nil, nil }, false},
			{"update, present", func() (bool, error) { return true, c.Update(doc("a", 3)) }, true},
			{"update, absent", func() (bool, error) { err := c.Update(doc("b", 4)); return err == nil, nil }, false},
			{"upsert, absent", func() (bool, error) { _, err := c.Upsert(doc("b", 5)); return true, err }, true},
			{"upsert, present", func() (bool, error) { _, err := c.Upsert(doc("b", 6)); return true, err }, true},
			{"upsert, unique collision", func() (bool, error) { _, err := c.Upsert(doc("b", 3)); return err == nil, nil }, false},
			{"put-if, absent, accepted", func() (bool, error) { return c.PutIf(ctx, doc("c", 7), yes) }, true},
			{"put-if, present, accepted", func() (bool, error) { return c.PutIf(ctx, doc("c", 8), yes) }, true},
			{"put-if, present, refused", func() (bool, error) { return c.PutIf(ctx, doc("c", 9), no) }, false},
			{"put-if, absent, refused", func() (bool, error) { return c.PutIf(ctx, doc("d", 9), no) }, false},
			{"delete-if, present, refused", func() (bool, error) { return c.DeleteIf("c", no) }, false},
			{"delete-if, present, accepted", func() (bool, error) { return c.DeleteIf("c", yes) }, true},
			{"delete-if, absent", func() (bool, error) { return c.DeleteIf("c", yes) }, false},
			{"delete, present", func() (bool, error) { return c.Delete("b") }, true},
			{"delete, absent", func() (bool, error) { return c.Delete("b") }, false},
		} {
			counter.gets = 0
			logged := s.log.NextLSN()
			changed, err := step.do()
			if err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			if changed != step.want {
				t.Fatalf("%s: changed = %v, want %v", step.name, changed, step.want)
			}
			if counter.gets != 1 {
				t.Errorf("%s: %d reads of the primary index, want 1", step.name, counter.gets)
			}
			logged = s.log.NextLSN() - logged
			if want := map[bool]wal.LSN{true: 1, false: 0}[step.want]; logged != want {
				t.Errorf("%s: %d WAL records, want %d", step.name, logged, want)
			}
		}
		if v, _ := c.Get("a"); v == nil || c.Len() != 1 {
			t.Fatalf("collection ends with %d documents (a = %v), want only a", c.Len(), v)
		}
	})
}
