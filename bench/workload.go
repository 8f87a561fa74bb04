package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
	"time"
)

// sizes scales the data and every cache with it, so that "fits" and "does
// not fit" stay real at a size the cluster can preload in seconds. Today a
// new-key apply scans its collection, so preload time grows with the square
// of the key count; 512 keys take about 2 s, 2048 take 21 s.
type sizes struct {
	keys       int // preloaded eventual keys
	strongKeys int // preloaded strong keys (strong_rw)
	// hotKeys is get_hot's hot set. It is a quarter of the gateway cache, not
	// half: the cache evicts per segment, and with 48 hot keys over 32
	// segments of 3 slots, which seeds overflowed a segment decided the hit
	// share (0.90-1.00 of the hot set) and with it a tenth of the throughput.
	hotKeys    int
	valueBytes int

	cacheBytes      int64 // gateway cache, over 2 cache servers
	blockCacheBytes int64 // lsm block cache, per node
	memtableBytes   int64 // lsm write buffer, per node

	gossip time.Duration // node tick period
	warmup time.Duration // load before the measured window
	setups int           // clusters built per untraced run; setup_s is their median
	probe  time.Duration // how long each micro-probe calls its function
}

// fullSizes: 512 keys x 4 KiB = 2 MiB, 1.2 MiB per node after replication.
// The gateway cache holds 96 values (3 per cache segment), a 5.3th of the
// data; each block cache holds a 4.8th of its node's data; a memtable
// flushes every ~60 records, so flushes and L0->L1 compactions happen.
var fullSizes = sizes{
	keys: 512, strongKeys: 256, hotKeys: 24, valueBytes: 4096,
	cacheBytes: 384 << 10, blockCacheBytes: 256 << 10, memtableBytes: 256 << 10,
	gossip: 200 * time.Millisecond, warmup: time.Second, setups: 2,
	probe: 200 * time.Millisecond,
}

// shortSizes is the smoke scale behind -short and the tier-1 test.
var shortSizes = sizes{
	keys: 128, strongKeys: 64, hotKeys: 12, valueBytes: 4096,
	cacheBytes: 128 << 10, blockCacheBytes: 128 << 10, memtableBytes: 64 << 10,
	gossip: 50 * time.Millisecond, warmup: 200 * time.Millisecond, setups: 1,
	probe: 20 * time.Millisecond,
}

// mixedOpenRate is mixed_open's fixed arrival rate, ops/s. It was settled
// once on the bench machine so that loadgen.conn_busy_share lands in
// 0.3-0.5 (see README.md); a change that claims a gain may not move it.
const mixedOpenRate = 600

type opKind uint8

const (
	opGet opKind = iota
	opPut
)

func (k opKind) String() string {
	if k == opPut {
		return "put"
	}
	return "get"
}

// op is one generated request. key < 0 asks for a never-seen key.
type op struct {
	kind opKind
	key  int
}

// workload is one traffic mix. The program under test never sees its name:
// it receives only the requests next generates.
type workload struct {
	name string
	why  string
	// strong boots the CP tier (StrongRanges 4) and sends every op with
	// ?consistency=strong over the strong keys.
	strong bool
	// keys reports how many keys set-up preloads; they are the population
	// next draws from.
	keys func(sz sizes) int
	// openRate > 0 makes the load an open loop at that arrival rate.
	openRate float64
	// primary is the op type whose latency p50_ms and p95_ms report.
	primary opKind
	// next draws a request over n preloaded keys, the first hot of them hot.
	next func(r *rand.Rand, n, hot int) op
}

func (w workload) writes() bool { return w.primary == opPut }

func eventualKeys(sz sizes) int { return sz.keys }

func uniformGet(r *rand.Rand, n, _ int) op { return op{kind: opGet, key: r.Intn(n)} }

func halfGetHalfPut(r *rand.Rand, n, _ int) op {
	o := op{kind: opGet, key: r.Intn(n)}
	if r.Intn(2) == 0 {
		o.kind = opPut
	}
	return o
}

// workloads lists the suite. Each why says which layers the mix loads and
// which it bypasses; BENCHMARK.json repeats them.
var workloads = []workload{
	{
		name: "put_new",
		why: "closed loop, 2 clients, POST of never-seen keys into an empty cluster: nwr fan-out, docstore index miss + insert, " +
			"WAL fsync, flush, compaction, merkle; state grows (Fig 16 decay); rest/cache bypassed",
		keys:    func(sizes) int { return 0 },
		primary: opPut,
		next:    func(*rand.Rand, int, int) op { return op{kind: opPut, key: -1} },
	},
	{
		name: "get_uniform",
		why: "closed loop, 2 clients, GET uniform over the preloaded keys, 5.3x the gateway cache: " +
			"rest -> cluster -> transport -> nwr read -> docstore -> lsm; the write path only shapes the tables",
		keys:    eventualKeys,
		primary: opGet,
		next:    uniformGet,
	},
	{
		name: "get_hot",
		why: "same data, 95% of GETs to a hot set that fits the gateway cache: rest + dispatch + cache do the work; " +
			"bypass workload for any storage, nwr or transport change",
		keys:    eventualKeys,
		primary: opGet,
		next: func(r *rand.Rand, n, hot int) op {
			if r.Intn(100) < 95 {
				n = hot
			}
			return uniformGet(r, n, hot)
		},
	},
	{
		name: "mixed_open",
		why: "open loop, Poisson arrivals at a fixed rate, 50% GET / 50% overwriting POST, at most 2 in flight: " +
			"overwrites feed compaction, write-through churns the cache, tails free of coordinated omission",
		keys:     eventualKeys,
		openRate: mixedOpenRate,
		primary:  opPut,
		next:     halfGetHalfPut,
	},
	{
		name: "strong_rw",
		why: "closed loop, 2 clients, 50% strong PUT / 50% strong GET over strong keys: consensus propose/commit, " +
			"consensus WAL and docstore WAL, leaseholder reads; the only workload where consensus works",
		strong:  true,
		keys:    func(sz sizes) int { return sz.strongKeys },
		primary: opPut,
		next:    halfGetHalfPut,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// keyState tracks one preloaded key for the correctness gate. Writes to a
// key never overlap (busy), so sequence order equals last-write-wins order
// and acked only grows.
type keyState struct {
	name  string
	next  atomic.Uint64 // last sequence handed to a writer
	acked atomic.Uint64 // highest sequence the gateway acknowledged
	busy  atomic.Bool   // a write is in flight
}

// keyspace is the run's key population: the preloaded keys plus the
// never-seen keys put_new mints.
type keyspace struct {
	tag    string
	keys   []keyState
	minted atomic.Int64
}

func newKeyspace(seed int64, n int, strong bool) *keyspace {
	prefix := "k"
	if strong {
		prefix = "s" // strong keys are disjoint from eventual keys
	}
	ks := &keyspace{tag: fmt.Sprintf("%s%08x", prefix, uint32(seed*2654435761))}
	ks.keys = make([]keyState, n)
	for i := range ks.keys {
		ks.keys[i].name = ks.name(i)
	}
	return ks
}

// name is the i-th preloaded key.
func (ks *keyspace) name(i int) string { return fmt.Sprintf("%s-%05d", ks.tag, i) }

// mint names a key no request has used yet.
func (ks *keyspace) mint() string {
	return fmt.Sprintf("%s-new-%07d", ks.tag, ks.minted.Add(1))
}

// lockForWrite returns a key no other writer holds, starting from want and
// redrawing on a collision (rare: at most 2 writers over hundreds of keys).
func (ks *keyspace) lockForWrite(want int, r *rand.Rand) *keyState {
	for {
		k := &ks.keys[want]
		if k.busy.CompareAndSwap(false, true) {
			return k
		}
		want = r.Intn(len(ks.keys))
	}
}

// Values are self-describing so every read can be checked on its own:
//
//	[0:4)   CRC32 of bytes [4:)
//	[4:12)  per-key sequence
//	[12:14) key length
//	[14:..) key, then xorshift filler seeded by the sequence
const valueHeader = 14

var errBadValue = errors.New("value fails its check")

func encodeValue(buf []byte, key string, seq uint64) {
	binary.BigEndian.PutUint64(buf[4:12], seq)
	binary.BigEndian.PutUint16(buf[12:14], uint16(len(key)))
	n := valueHeader + copy(buf[valueHeader:], key)
	x := seq*0x9E3779B97F4A7C15 + 1
	for ; n+8 <= len(buf); n += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[n:], x)
	}
	for ; n < len(buf); n++ {
		buf[n] = byte(x)
	}
	binary.BigEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[4:]))
}

func decodeValue(b []byte) (key string, seq uint64, err error) {
	if len(b) < valueHeader {
		return "", 0, fmt.Errorf("%w: %d bytes", errBadValue, len(b))
	}
	if crc32.ChecksumIEEE(b[4:]) != binary.BigEndian.Uint32(b[0:4]) {
		return "", 0, fmt.Errorf("%w: CRC mismatch", errBadValue)
	}
	klen := int(binary.BigEndian.Uint16(b[12:14]))
	if valueHeader+klen > len(b) {
		return "", 0, fmt.Errorf("%w: key length %d", errBadValue, klen)
	}
	return string(b[valueHeader : valueHeader+klen]), binary.BigEndian.Uint64(b[4:12]), nil
}
