// Package cache implements MyStore's cache module (paper §4): an
// independent memory-cache tier of several servers, each an LRU store of
// {key: value} items, with client-side load balancing "based on the hash of
// resources' keys". Items read, inserted or updated recently are cached;
// the gateway consults the cache before the storage cluster and fills it on
// miss.
//
// Each Server is internally sharded across mutex-guarded segments keyed by
// key hash, so concurrent gateway workers do not serialize on one lock.
// LRU order is therefore exact per segment and approximate across the
// server as a whole — the standard memcached-style trade-off. Tests that
// need exact global LRU build a single-segment server with
// NewServerShards(capacity, 1).
package cache

import (
	"container/list"
	"sync"

	"mystore/internal/metrics"
	"mystore/internal/ring"
)

// DefaultShards is the segment count NewServer uses. Sixteen segments keep
// lock hold times short at gateway concurrency while staying cheap for
// small caches.
const DefaultShards = 16

// Server is one LRU cache server bounded by total value bytes, sharded
// across DefaultShards mutex-guarded segments.
type Server struct {
	shards []*shard

	hits, misses, evictions metrics.Counter
}

// shard is one independently locked LRU segment.
type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List // front = most recently used
	items    map[string]*list.Element
}

type entry struct {
	key string
	val []byte
}

// NewServer returns a cache holding at most capacity bytes of values,
// sharded across DefaultShards segments.
func NewServer(capacity int64) *Server {
	return NewServerShards(capacity, DefaultShards)
}

// NewServerShards returns a cache with an explicit segment count. One
// segment gives the exact global LRU order of the unsharded design.
func NewServerShards(capacity int64, shards int) *Server {
	if capacity <= 0 {
		capacity = 64 << 20
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	per := capacity / int64(shards)
	if per < 1 {
		per = 1
	}
	s := &Server{}
	for i := 0; i < shards; i++ {
		s.shards = append(s.shards, &shard{
			capacity: per,
			order:    list.New(),
			items:    make(map[string]*list.Element),
		})
	}
	return s
}

// shardFor maps key to its segment with FNV-1a. The tier above already
// places keys on servers with the Ketama hash; a different hash here keeps
// the two partitionings independent (the same hash mod servers then mod
// shards would leave most segments empty).
func (s *Server) shardFor(key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return s.shards[h%uint64(len(s.shards))]
}

// Get returns the cached value and whether it was present, refreshing
// recency.
func (s *Server) Get(key string) ([]byte, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.items[key]
	if !ok {
		sh.mu.Unlock()
		s.misses.Inc()
		return nil, false
	}
	sh.order.MoveToFront(el)
	val := el.Value.(*entry).val
	out := make([]byte, len(val))
	copy(out, val)
	sh.mu.Unlock()
	s.hits.Inc()
	return out, true
}

// Set inserts or refreshes key, evicting LRU items from its segment to stay
// within the segment's capacity share. Values larger than one segment's
// share are not cached.
func (s *Server) Set(key string, val []byte) {
	sh := s.shardFor(key)
	size := int64(len(val))
	if size > sh.capacity {
		return
	}
	stored := make([]byte, len(val))
	copy(stored, val)
	var evicted int64
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		old := el.Value.(*entry)
		sh.used += size - int64(len(old.val))
		old.val = stored
		sh.order.MoveToFront(el)
	} else {
		el := sh.order.PushFront(&entry{key: key, val: stored})
		sh.items[key] = el
		sh.used += size
	}
	for sh.used > sh.capacity {
		oldest := sh.order.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*entry)
		sh.order.Remove(oldest)
		delete(sh.items, e.key)
		sh.used -= int64(len(e.val))
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		s.evictions.Add(evicted)
	}
}

// Delete removes key if cached.
func (s *Server) Delete(key string) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*entry)
		sh.order.Remove(el)
		delete(sh.items, key)
		sh.used -= int64(len(e.val))
	}
}

// UsedBytes returns the bytes of cached values.
func (s *Server) UsedBytes() int64 {
	var used int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		used += sh.used
		sh.mu.Unlock()
	}
	return used
}

// Stats summarize server activity.
type Stats struct {
	Hits, Misses, Evictions int64
	Items                   int
	UsedBytes               int64
}

// Stats returns a snapshot.
func (s *Server) Stats() Stats {
	st := Stats{
		Hits:      s.hits.Value(),
		Misses:    s.misses.Value(),
		Evictions: s.evictions.Value(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Items += len(sh.items)
		st.UsedBytes += sh.used
		sh.mu.Unlock()
	}
	return st
}

// Tier is the client-side view of several cache servers: each key maps to
// one server by key hash, so servers hold disjoint partitions (paper: cache
// servers "are responsible for different partitions of data resources").
type Tier struct {
	servers []*Server
}

// NewTier builds a tier of n servers with the given per-server capacity.
func NewTier(n int, perServerCapacity int64) *Tier {
	if n <= 0 {
		n = 1
	}
	t := &Tier{}
	for i := 0; i < n; i++ {
		t.servers = append(t.servers, NewServer(perServerCapacity))
	}
	return t
}

// pick maps key to its server via the same Ketama hash the ring uses.
func (t *Tier) pick(key string) *Server {
	return t.servers[int(ring.Hash(key))%len(t.servers)]
}

// Get looks the key up on its server.
func (t *Tier) Get(key string) ([]byte, bool) { return t.pick(key).Get(key) }

// GetMany looks every key up on its server, returning the hits plus the
// miss set in first-seen order (duplicates collapsed). The gateway's batch
// endpoint consults the tier once, then fetches the whole miss set from the
// backend in a single batched round.
func (t *Tier) GetMany(keys []string) (found map[string][]byte, missing []string) {
	found = make(map[string][]byte, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		if v, ok := t.pick(k).Get(k); ok {
			found[k] = v
		} else {
			missing = append(missing, k)
		}
	}
	return found, missing
}

// Set stores the key on its server.
func (t *Tier) Set(key string, val []byte) { t.pick(key).Set(key, val) }

// Delete removes the key from its server.
func (t *Tier) Delete(key string) { t.pick(key).Delete(key) }

// Servers exposes the underlying servers (stats, tests).
func (t *Tier) Servers() []*Server { return t.servers }

// Stats aggregates across servers.
func (t *Tier) Stats() Stats {
	var agg Stats
	for _, s := range t.servers {
		st := s.Stats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
		agg.Items += st.Items
		agg.UsedBytes += st.UsedBytes
	}
	return agg
}
