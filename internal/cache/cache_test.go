package cache

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestGetSetDelete(t *testing.T) {
	s := NewServer(1024)
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on empty cache hit")
	}
	s.Set("k", []byte("value"))
	v, ok := s.Get("k")
	if !ok || string(v) != "value" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	s.Delete("k")
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get after Delete hit")
	}
	s.Delete("k") // idempotent
}

func TestSetOverwriteAdjustsUsage(t *testing.T) {
	s := NewServerShards(1024, 1)
	s.Set("k", make([]byte, 100))
	if got := s.UsedBytes(); got != 100 {
		t.Fatalf("UsedBytes = %d", got)
	}
	s.Set("k", make([]byte, 30))
	if got := s.UsedBytes(); got != 30 {
		t.Fatalf("UsedBytes after shrink = %d", got)
	}
	if s.Stats().Items != 1 {
		t.Fatalf("Len = %d", s.Stats().Items)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewServer(1024)
	s.Set("k", []byte{1, 2, 3})
	v, _ := s.Get("k")
	v[0] = 99
	v2, _ := s.Get("k")
	if v2[0] != 1 {
		t.Fatal("cache shares memory with callers")
	}
}

// TestLRUEviction checks the exact LRU order a single segment maintains.
func TestLRUEviction(t *testing.T) {
	s := NewServerShards(300, 1)
	s.Set("a", make([]byte, 100))
	s.Set("b", make([]byte, 100))
	s.Set("c", make([]byte, 100))
	// Touch a so b becomes the LRU.
	s.Get("a") //nolint:errcheck
	s.Set("d", make([]byte, 100))
	if _, ok := s.Get("b"); ok {
		t.Fatal("LRU item b not evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("item %s wrongly evicted", k)
		}
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d", st.Evictions)
	}
}

func TestOversizeValueNotCached(t *testing.T) {
	s := NewServer(100)
	s.Set("big", make([]byte, 200))
	if _, ok := s.Get("big"); ok {
		t.Fatal("oversize value cached")
	}
	if s.UsedBytes() != 0 {
		t.Fatal("oversize value counted")
	}
}

func TestStatsCounts(t *testing.T) {
	s := NewServer(1024)
	s.Set("k", []byte("v"))
	s.Get("k")    //nolint:errcheck
	s.Get("nope") //nolint:errcheck
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Items != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestCapacityInvariantProperty(t *testing.T) {
	s := NewServerShards(500, 1)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%50)
			size := int(op % 200)
			s.Set(key, make([]byte, size))
			if s.UsedBytes() > 500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewServer(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%64)
				s.Set(key, []byte{byte(w)})
				s.Get(key) //nolint:errcheck
				if i%10 == 0 {
					s.Delete(key)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestShardedSpreadsSegments(t *testing.T) {
	s := NewServer(1 << 20)
	if len(s.shards) != DefaultShards {
		t.Fatalf("Shards = %d, want %d", len(s.shards), DefaultShards)
	}
	for i := 0; i < 2000; i++ {
		s.Set(fmt.Sprintf("key-%d", i), []byte("v"))
	}
	if s.Stats().Items != 2000 {
		t.Fatalf("Len = %d, want 2000", s.Stats().Items)
	}
	// Every segment should hold a reasonable share of 2000 uniform keys.
	for i, sh := range s.shards {
		sh.mu.Lock()
		n := len(sh.items)
		sh.mu.Unlock()
		if n < 2000/DefaultShards/4 {
			t.Errorf("segment %d holds only %d of 2000 keys", i, n)
		}
	}
}

func TestShardedCapacityInvariant(t *testing.T) {
	s := NewServer(16 << 10) // 1 KiB per segment
	for i := 0; i < 500; i++ {
		s.Set(fmt.Sprintf("key-%d", i), make([]byte, 100))
	}
	if used := s.UsedBytes(); used > 16<<10 {
		t.Fatalf("UsedBytes = %d exceeds capacity", used)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions once segments filled")
	}
	if st.UsedBytes != s.UsedBytes() {
		t.Fatalf("Stats.UsedBytes = %d, UsedBytes() = %d", st.UsedBytes, s.UsedBytes())
	}
}

func TestShardedCountersConcurrent(t *testing.T) {
	s := NewServer(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%32)
				s.Set(key, []byte{byte(w)})
				s.Get(key)                          //nolint:errcheck
				s.Get(fmt.Sprintf("missing-%d", i)) //nolint:errcheck
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits != 8*200 {
		t.Fatalf("Hits = %d, want %d", st.Hits, 8*200)
	}
	if st.Misses != 8*200 {
		t.Fatalf("Misses = %d, want %d", st.Misses, 8*200)
	}
}

func TestZeroCapacityDefaults(t *testing.T) {
	s := NewServer(0)
	s.Set("k", []byte("v"))
	if _, ok := s.Get("k"); !ok {
		t.Fatal("default-capacity server rejected a small value")
	}
}

func TestTierPartitionsKeys(t *testing.T) {
	tier := NewTier(4, 1<<20)
	const keys = 2000
	for i := 0; i < keys; i++ {
		tier.Set(fmt.Sprintf("key-%d", i), []byte("v"))
	}
	// Every key must be on exactly one server.
	total := 0
	for _, s := range tier.Servers() {
		n := s.Stats().Items
		total += n
		if n == 0 {
			t.Error("a tier server received no keys")
		}
	}
	if total != keys {
		t.Fatalf("tier holds %d items, want %d", total, keys)
	}
	// Reads route to the same server.
	for i := 0; i < keys; i++ {
		if _, ok := tier.Get(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("tier lost key-%d", i)
		}
	}
}

func TestTierDeleteAndStats(t *testing.T) {
	tier := NewTier(3, 1<<20)
	tier.Set("k", []byte("v"))
	if _, ok := tier.Get("k"); !ok {
		t.Fatal("tier Get missed")
	}
	tier.Delete("k")
	if _, ok := tier.Get("k"); ok {
		t.Fatal("tier Delete ineffective")
	}
	st := tier.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("tier Stats = %+v", st)
	}
}

func TestTierZeroServersDefaults(t *testing.T) {
	tier := NewTier(0, 1024)
	if len(tier.Servers()) != 1 {
		t.Fatal("zero-server tier should default to 1")
	}
}

func BenchmarkServerGetHit(b *testing.B) {
	s := NewServer(1 << 20)
	s.Set("k", make([]byte, 1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Get("k") //nolint:errcheck
	}
}

func BenchmarkTierSet(b *testing.B) {
	tier := NewTier(4, 1<<24)
	val := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tier.Set(fmt.Sprintf("key-%d", i%1000), val)
	}
}
