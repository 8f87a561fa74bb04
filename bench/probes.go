package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"mystore/internal/bson"
	"mystore/internal/cache"
	"mystore/internal/dispatch"
	"mystore/internal/docstore"
	"mystore/internal/lsm"
	"mystore/internal/merkle"
	"mystore/internal/nwr"
	"mystore/internal/ring"
	"mystore/internal/wal"
)

// Probes size the layers no outside boundary separates: those below the
// replica handler (docstore, wal, lsm, bson, merkle) and those beside the
// request path (cache, dispatch). Each calls one public function for a
// fixed time on the workload's own keys and values, on scratch instances
// opened with the nodes' options.

// timeCalls calls fn until d has passed and returns the mean time per call.
// The clock is read once per batch, which doubles until a batch is long
// enough that reading it does not weigh on ns-scale functions.
func timeCalls(d time.Duration, fn func(i int)) time.Duration {
	begin := time.Now()
	n, batch := 0, 1
	for {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			fn(n)
			n++
		}
		now := time.Now()
		if now.Sub(begin) >= d {
			return now.Sub(begin) / time.Duration(n)
		}
		if now.Sub(t0) < 50*time.Microsecond {
			batch *= 2
		}
	}
}

func ns(d time.Duration) float64 { return float64(d) }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// probeRecord is the document a replica stores for one 4 KiB value.
func probeRecord(ks *keyspace, sz sizes, i int) bson.D {
	val := make([]byte, sz.valueBytes)
	key := fmt.Sprintf("%s-probe-%06d", ks.tag, i)
	encodeValue(val, key, 1)
	rec := nwr.Record{Key: key, Val: val, IsData: true, Ver: int64(i + 1), Origin: "127.0.0.1:1"}
	return rec.WithId(time.Unix(1700000000, int64(i)))
}

// applyNew is what a replica does for a never-seen key: look the key up,
// miss, insert.
func applyNew(coll *docstore.Collection, doc bson.D) error {
	key, _ := doc.Get("self-key")
	if _, _, err := coll.FindOne(docstore.Filter{{Key: "self-key", Value: key}}); err != nil {
		return err
	}
	_, err := coll.Insert(doc)
	return err
}

func runProbes(sz sizes, ks *keyspace, dir string) ([]metric, error) {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	r := rand.New(rand.NewSource(1))
	nodeStore := storeOptions(nodeOptions(sz, "", nil, false))

	pool := dispatch.NewPool(8, 64)
	noop := func(context.Context) error { return nil }
	add("dispatch.do_ns", ns(timeCalls(sz.probe, func(int) { pool.Do(context.Background(), noop) })), "ns") //nolint:errcheck // no-op cannot fail
	pool.Close()

	tier := cache.NewTier(cacheServers, sz.cacheBytes/cacheServers)
	val := make([]byte, sz.valueBytes)
	encodeValue(val, "probe", 1)
	names := make([]string, sz.keys)
	for i := range names {
		names[i] = ks.name(i)
	}
	add("cache.set_ns", ns(timeCalls(sz.probe, func(i int) { tier.Set(names[i%len(names)], val) })), "ns")
	add("cache.get_ns", ns(timeCalls(sz.probe, func(int) { tier.Get(names[r.Intn(len(names))]) })), "ns")

	doc := probeRecord(ks, sz, 0)
	enc, err := bson.Marshal(doc)
	if err != nil {
		return nil, err
	}
	add("bson.marshal_ns", ns(timeCalls(sz.probe, func(int) { bson.Marshal(doc) })), "ns") //nolint:errcheck // encoded once above
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	add("bson.unmarshal_ns", ns(timeCalls(sz.probe, func(int) { bson.Unmarshal(enc); calls++ })), "ns") //nolint:errcheck // round trip of our own bytes
	runtime.ReadMemStats(&after)
	add("bson.unmarshal_allocs", float64(after.Mallocs-before.Mallocs)/float64(calls), "1/op")

	// docstore: a new-key apply into an empty collection and into one that
	// already holds 2048 records, an update, and an indexed lookup.
	for _, filled := range []int{0, 2048} {
		// Fill without fsyncs, then reopen under the nodes' options.
		opts := nodeStore
		opts.Dir = filepath.Join(dir, fmt.Sprintf("probe-store-%d", filled))
		opts.WAL.SyncEveryAppend = false
		store, err := docstore.Open(opts)
		if err != nil {
			return nil, err
		}
		coll := store.C(nwr.RecordCollection)
		if err := coll.EnsureIndex("self-key", true); err != nil {
			store.Close()
			return nil, err
		}
		docs := make([]bson.D, 0, filled)
		for i := 0; i < filled; i++ {
			d := probeRecord(ks, sz, i)
			docs = append(docs, d)
			if _, err := coll.Insert(d); err != nil {
				store.Close()
				return nil, err
			}
		}
		if err := store.Close(); err != nil {
			return nil, err
		}
		opts.WAL = nodeStore.WAL
		if store, err = docstore.Open(opts); err != nil {
			return nil, err
		}
		coll = store.C(nwr.RecordCollection)
		var perr error
		d := timeCalls(sz.probe, func(i int) {
			if err := applyNew(coll, probeRecord(ks, sz, filled+i)); err != nil {
				perr = err
			}
		})
		add(fmt.Sprintf("docstore.insert_us_n%d", filled), us(d), "us")
		if filled > 0 {
			add("docstore.update_us", us(timeCalls(sz.probe, func(int) {
				if err := coll.Update(docs[r.Intn(len(docs))]); err != nil {
					perr = err
				}
			})), "us")
			add("docstore.findone_us", us(timeCalls(sz.probe, func(int) {
				key, _ := docs[r.Intn(len(docs))].Get("self-key")
				if _, found, err := coll.FindOne(docstore.Filter{{Key: "self-key", Value: key}}); err != nil || !found {
					perr = fmt.Errorf("findone probe: found=%v err=%v", found, err)
				}
			})), "us")
		}
		if err := store.Close(); err != nil {
			return nil, err
		}
		if perr != nil {
			return nil, perr
		}
	}

	log, err := wal.Open(filepath.Join(dir, "probe-wal"), nodeStore.WAL)
	if err != nil {
		return nil, err
	}
	var werr error
	add("wal.append_us", us(timeCalls(sz.probe, func(int) {
		if _, err := log.Append(enc); err != nil {
			werr = err
		}
	})), "us")
	if err := log.Close(); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}

	eng, err := lsm.Open(lsm.Options{Dir: filepath.Join(dir, "probe-lsm"), Tuning: nodeStore.Storage})
	if err != nil {
		return nil, err
	}
	var lerr error
	lsn := uint64(0)
	add("lsm.apply_us", us(timeCalls(sz.probe, func(i int) {
		lsn++
		if err := eng.Apply([]byte(names[i%len(names)]), enc, lsn); err != nil {
			lerr = err
		}
	})), "us")
	add("lsm.get_us", us(timeCalls(sz.probe, func(int) {
		if _, _, err := eng.Get([]byte(names[r.Intn(len(names))])); err != nil {
			lerr = err
		}
	})), "us")
	if err := eng.Close(); err != nil {
		return nil, err
	}
	if lerr != nil {
		return nil, lerr
	}

	tree := merkle.New(10)
	h := make([]uint32, len(names))
	for i, n := range names {
		h[i] = ring.Hash(n)
	}
	add("merkle.replace_ns", ns(timeCalls(sz.probe, func(i int) {
		k := i % len(names)
		tree.Replace(h[k], merkle.RecordHash(names[k], int64(i), "127.0.0.1:1", false),
			merkle.RecordHash(names[k], int64(i+1), "127.0.0.1:1", false))
	})), "ns")
	return out, nil
}
