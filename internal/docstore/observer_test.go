package docstore

import (
	"fmt"
	"sync"
	"testing"

	"mystore/internal/bson"
)

func TestApplyObserverSeesAllMutations(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")

	type event struct{ old, new string }
	var mu sync.Mutex
	var events []event
	name := func(d bson.D) string {
		if d == nil {
			return ""
		}
		id, _ := d.Get("_id")
		return fmt.Sprint(id)
	}
	c.SetApplyObserver(func(old, new bson.D) {
		mu.Lock()
		events = append(events, event{name(old), name(new)})
		mu.Unlock()
	})

	doc := bson.D{{Key: "_id", Value: "k1"}, {Key: "v", Value: int64(1)}}
	if _, err := c.Insert(doc); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	doc2 := bson.D{{Key: "_id", Value: "k1"}, {Key: "v", Value: int64(2)}}
	if err := c.Update(doc2); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if _, err := c.Delete("k1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	want := []event{{"", "k1"}, {"k1", "k1"}, {"k1", ""}}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != len(want) {
		t.Fatalf("observer saw %d events, want %d: %v", len(events), len(want), events)
	}
	for i, e := range events {
		if e != want[i] {
			t.Fatalf("event %d = %v, want %v", i, e, want[i])
		}
	}
}

func TestApplyObserverRemoval(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	var calls int
	c.SetApplyObserver(func(old, new bson.D) { calls++ })
	if _, err := c.Insert(bson.D{{Key: "_id", Value: "a"}}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	c.SetApplyObserver(nil)
	if _, err := c.Insert(bson.D{{Key: "_id", Value: "b"}}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if calls != 1 {
		t.Fatalf("observer called %d times after removal, want 1", calls)
	}
}

func TestEachIteratesAllWithoutCloning(t *testing.T) {
	s := scratchStore(t)
	c := s.C("records")
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := c.Insert(bson.D{{Key: "_id", Value: fmt.Sprintf("k%02d", i)}}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	var seen int
	var prev string
	c.Each(func(doc bson.D) bool {
		id, _ := doc.Get("_id")
		k := id.(string)
		if prev != "" && k <= prev {
			t.Fatalf("Each out of order: %q after %q", k, prev)
		}
		prev = k
		seen++
		return true
	})
	if seen != n {
		t.Fatalf("Each visited %d docs, want %d", seen, n)
	}
	// Early stop.
	seen = 0
	c.Each(func(doc bson.D) bool {
		seen++
		return seen < 7
	})
	if seen != 7 {
		t.Fatalf("Each early stop visited %d, want 7", seen)
	}
}

func TestEachSyncedWindowIsExact(t *testing.T) {
	// A writer hammers the collection while EachSynced rebuilds a count via
	// its begin hook: docs counted by the scan plus inserts observed after
	// begin must equal the final collection size exactly — no mutation is
	// double-counted or lost across the snapshot point.
	s := scratchStore(t)
	c := s.C("records")
	for i := 0; i < 100; i++ {
		if _, err := c.Insert(bson.D{{Key: "_id", Value: fmt.Sprintf("pre%03d", i)}}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}

	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				done <- n
				return
			default:
			}
			if _, err := c.Insert(bson.D{{Key: "_id", Value: fmt.Sprintf("live%04d", n)}}); err != nil {
				t.Errorf("Insert: %v", err)
				done <- n
				return
			}
			n++
		}
	}()

	var mu sync.Mutex
	var observed int
	var scanned int
	c.EachSynced(func() {
		c.observer = func(old, new bson.D) {
			mu.Lock()
			observed++
			mu.Unlock()
		}
	}, func(doc bson.D) bool {
		scanned++
		return true
	})
	close(stop)
	<-done
	c.SetApplyObserver(nil)

	mu.Lock()
	total := scanned + observed
	mu.Unlock()
	if total != c.Len() {
		t.Fatalf("scan(%d) + observed(%d) = %d, want %d", scanned, observed, total, c.Len())
	}
}
