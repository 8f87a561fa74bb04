package nwr

// The read path: one quorum read over a key set, behind both Get and
// GetMany. A read asks each key's R primary replicas at once and parks the
// remaining N−R as reserves; the reserves launch when a hedge timer fires
// (recent p95 of read latency), when any read fails, or — at the latest —
// once every key has its quorum, as background repair probes. The caller
// gets an answer as soon as every key has R answers; the stragglers finish on
// a detached context and feed the async repair pool, so every read still
// drives repair and replica supplementation across all N replicas ("if
// replications are less than N ... some more replications are supplemented",
// §5.2.2) without paying max-over-N latency for it.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"mystore/internal/trace"
	"mystore/internal/transport"
)

// minHedgeDelay floors the adaptive hedge delay: below ~1ms the timer fires
// on ordinary scheduling jitter and the reserves stop being reserves.
const minHedgeDelay = time.Millisecond

// hedgeRecomputeEvery bounds how often the adaptive delay re-snapshots the
// read-latency histogram; Snapshot allocates and reads are hot.
const hedgeRecomputeEvery = 100 * time.Millisecond

// repairWorkers is how many goroutines drain the async read-repair queue;
// repairQueue is how many jobs it holds before further ones are dropped and
// counted in Stats.ReadRepairDropped.
const (
	repairWorkers = 2
	repairQueue   = 256
)

// stragglerGrace is how long past a replica call's own timeout the
// background finisher keeps draining answers before repairing with what it
// has.
const stragglerGrace = time.Second

// hedgeDelay returns how long the reserves stay parked: the recent p95 of
// this coordinator's read latency floored at minHedgeDelay and capped at
// CallTimeout/2.
func (c *Coordinator) hedgeDelay() time.Duration {
	now := c.cfg.Now().UnixNano()
	if stamp := c.hedgeStamp.Load(); stamp != 0 && now-stamp < int64(hedgeRecomputeEvery) {
		return time.Duration(c.hedgeCached.Load())
	}
	d := time.Duration(c.getLatency.Snapshot().Quantile(0.95))
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if lim := c.cfg.CallTimeout / 2; d > lim {
		d = lim
	}
	c.hedgeCached.Store(int64(d))
	c.hedgeStamp.Store(now)
	return d
}

// Get reads key with the read quorum: the one read over a set of one key.
func (c *Coordinator) Get(ctx context.Context, key string) (val []byte, err error) {
	ctx, sp := trace.Start(ctx, "nwr.read")
	start := c.cfg.Now()
	defer func() {
		c.getLatency.ObserveDuration(c.cfg.Now().Sub(start))
		sp.End(err)
	}()
	res, err := c.read(ctx, []string{key})
	if err != nil {
		return nil, err
	}
	return res[0].Val, res[0].Err
}

// replicaAnswer is one replica's successful answer for one key.
type replicaAnswer struct {
	target string
	rec    Record
	found  bool
}

// KeyResult is one key's outcome within a read.
type KeyResult struct {
	Key string
	Val []byte
	Err error // nil, ErrNotFound, or ErrQuorumRead
}

// peerRead is one replica read: a peer, the keys asked of it and their
// positions in the read, in key order.
type peerRead struct {
	peer string
	keys []string
	idx  []int
}

// peerAnswer is a peerRead's outcome: the records the peer holds for its
// keys, in key order.
type peerAnswer struct {
	peerRead
	recs []Record
	err  error
}

// readOp is one quorum read over a deduplicated key set. perKey holds the
// successful answers for each key, indexed by key position. Only one
// goroutine touches it at a time: the read until the caller has its answer,
// then the finisher.
type readOp struct {
	c        *Coordinator
	keys     []string
	bctx     context.Context // detached from the caller; values only
	answers  chan peerAnswer
	reserves []peerRead // parked, one read per peer
	inflight int
	perKey   [][]replicaAnswer
}

// addRead files key, at position i, under peer's read in reads. A read
// touches at most every node once, so the linear search stays short.
func addRead(reads []peerRead, peer, key string, i int) []peerRead {
	for j := range reads {
		if reads[j].peer == peer {
			reads[j].keys = append(reads[j].keys, key)
			reads[j].idx = append(reads[j].idx, i)
			return reads
		}
	}
	return append(reads, peerRead{peer: peer, keys: []string{key}, idx: []int{i}})
}

// read is the one quorum read, behind Get (with one key) and GetMany. A key's primaries are its first R ring successors: each
// primary peer gets one read naming every key it is primary for, and these
// go out at once. The other N−R replicas are parked per peer and launched
// when the hedge timer fires, when any read fails, or — by the finisher —
// once the caller has its answer. A key settles at R successful answers,
// resolved last-write-wins over everything that has arrived; read returns
// when every key has settled or no read is left to wait for.
func (c *Coordinator) read(ctx context.Context, keys []string) ([]KeyResult, error) {
	op := &readOp{c: c, keys: keys, bctx: context.WithoutCancel(ctx), perKey: make([][]replicaAnswer, len(keys))}
	backing := make([]replicaAnswer, 0, len(keys)*c.cfg.N)
	var primaries []peerRead
	for i, k := range keys {
		targets, err := c.ring.Successors(k, c.cfg.N)
		if err != nil {
			return nil, err
		}
		op.perKey[i] = backing[i*c.cfg.N : i*c.cfg.N : (i+1)*c.cfg.N]
		for j, t := range targets {
			if j < c.cfg.R {
				primaries = addRead(primaries, t, k, i)
			} else {
				op.reserves = addRead(op.reserves, t, k, i)
			}
		}
	}
	op.answers = make(chan peerAnswer, len(primaries)+len(op.reserves))
	for _, r := range primaries {
		op.dispatch(r)
	}
	hedge := time.NewTimer(c.hedgeDelay())
	defer hedge.Stop()

	unsettled := len(keys)
	for unsettled > 0 && op.inflight > 0 {
		select {
		case a := <-op.answers:
			unsettled -= op.take(a)
			// A failed read is the only way a key stays short of R once its
			// primaries answer: launch the reserves now.
			if a.err != nil {
				op.launchReserves(true)
			}
		case <-hedge.C:
			op.launchReserves(true)
		case <-ctx.Done():
			c.bump(func(s *Stats) { s.GetFailures += int64(len(keys)) })
			return nil, fmt.Errorf("%w: abandoned with %d of %d keys settled: %v",
				ErrQuorumRead, len(keys)-unsettled, len(keys), ctx.Err())
		}
	}

	results := make([]KeyResult, len(keys))
	failed := 0
	for i, k := range keys {
		results[i].Key = k
		if ok := len(op.perKey[i]); ok < c.cfg.R {
			failed++
			results[i].Err = fmt.Errorf("%w: %d/%d replicas answered for key %q", ErrQuorumRead, ok, c.cfg.R, k)
		} else if newest, have := newestOf(op.perKey[i]); !have || newest.Deleted {
			results[i].Err = fmt.Errorf("%w: %q", ErrNotFound, k)
		} else {
			results[i].Val = newest.Val
		}
	}
	c.bump(func(s *Stats) {
		s.Gets += int64(len(keys) - failed)
		s.GetFailures += int64(failed)
		if unsettled == 0 && failed > 0 {
			s.ReadQuorumViolations++ // the loop counted a key settled below R
		}
	})
	transport.Go(op.finish)
	return results, nil
}

// dispatch launches one replica read; its answer lands on op.answers.
func (op *readOp) dispatch(r peerRead) {
	op.inflight++
	transport.Go(func() {
		rctx, sp := trace.Start(op.bctx, "nwr.replica.read")
		sp.SetPeer(r.peer)
		recs, err := op.c.ReadRecords(rctx, r.peer, r.keys, false)
		sp.End(err)
		op.answers <- peerAnswer{peerRead: r, recs: recs, err: err}
	})
}

// take files a successful peer answer under each of its keys and returns
// how many keys it brought to R answers.
func (op *readOp) take(a peerAnswer) (settled int) {
	op.inflight--
	if a.err != nil {
		return 0
	}
	recs := a.recs
	for _, i := range a.idx {
		ans := replicaAnswer{target: a.peer}
		if len(recs) > 0 && recs[0].Key == op.keys[i] {
			ans.rec, ans.found, recs = recs[0], true, recs[1:]
		}
		if op.perKey[i] = append(op.perKey[i], ans); len(op.perKey[i]) == op.c.cfg.R {
			settled++
		}
	}
	return settled
}

// launchReserves dispatches the parked reserves. hedge marks launches made
// while the caller still waits (timer or failure): those count as hedged
// reads, one per key and reserve; the finisher's launch does not.
func (op *readOp) launchReserves(hedge bool) {
	n := 0
	for _, r := range op.reserves {
		op.dispatch(r)
		n += len(r.idx)
	}
	op.reserves = nil
	if hedge && n > 0 {
		op.c.bump(func(s *Stats) { s.HedgedReads += int64(n) })
		_, hsp := trace.Start(op.bctx, "nwr.read.hedge")
		hsp.End(nil)
	}
}

// newestOf resolves last-write-wins over the answers.
func newestOf(answers []replicaAnswer) (Record, bool) {
	var newest Record
	have := false
	for _, a := range answers {
		if a.found && (!have || a.rec.Newer(newest)) {
			newest = a.rec
			have = true
		}
	}
	return newest, have
}

// finish runs after the caller has its answer: it launches the reserves the
// hedge never reached (keeping read-all-N repair without its latency),
// drains the stragglers bounded by their own RPC timeout, and hands each
// key's replica picture to the repair pool.
func (op *readOp) finish() {
	op.launchReserves(false)
	timeout := time.NewTimer(op.c.cfg.CallTimeout + stragglerGrace)
	defer timeout.Stop()
drain:
	for op.inflight > 0 {
		select {
		case a := <-op.answers:
			op.take(a)
		case <-timeout.C:
			// A straggler outlived even its own RPC timeout; repair with
			// what we have.
			break drain
		}
	}
	for i, k := range op.keys {
		op.c.repairFromAnswers(op.bctx, k, op.perKey[i])
	}
}

// repairFromAnswers compares the collected answers and enqueues one repair
// job covering every responder that is stale (read repair) or missing the
// record entirely (replica supplementation).
func (c *Coordinator) repairFromAnswers(bctx context.Context, key string, answers []replicaAnswer) {
	newest, have := newestOf(answers)
	if !have {
		return
	}
	var stale []replicaAnswer
	for _, a := range answers {
		if !a.found || newest.Newer(a.rec) {
			stale = append(stale, a)
		}
	}
	if len(stale) == 0 {
		return
	}
	c.enqueueRepair(repairJob{ctx: bctx, key: key, newest: newest, stale: stale})
}

// repairJob is one unit of async read repair: write newest back to each
// stale or missing replica.
type repairJob struct {
	ctx    context.Context // detached, value-only: repairs race no deadline
	key    string
	newest Record
	stale  []replicaAnswer // found is false where the replica had no record (supplementation)
}

// enqueueRepair hands a job to the repair pool without blocking: the request
// path must never stall on repair backlog, so a full queue drops the job —
// anti-entropy catches the replica up later — and counts the drop.
func (c *Coordinator) enqueueRepair(job repairJob) {
	c.repairOnce.Do(c.startRepairWorkers)
	c.pendingRepairs.Add(1)
	select {
	case c.repairQ <- job:
	default:
		c.pendingRepairs.Add(-1)
		c.bump(func(s *Stats) { s.ReadRepairDropped++ })
	}
}

func (c *Coordinator) startRepairWorkers() {
	for i := 0; i < repairWorkers; i++ {
		c.repairWG.Add(1)
		go c.repairWorker()
	}
}

func (c *Coordinator) repairWorker() {
	defer c.repairWG.Done()
	for {
		select {
		case job := <-c.repairQ:
			c.runRepair(job)
			c.pendingRepairs.Add(-1)
		case <-c.repairQuit:
			return
		}
	}
}

// runRepair writes the newest version back to each stale replica under the
// pool's own timeout, detached from whatever request discovered the
// staleness — a caller hitting its deadline no longer silently drops the
// repair.
func (c *Coordinator) runRepair(job repairJob) {
	ctx, cancel := context.WithTimeout(job.ctx, c.cfg.CallTimeout)
	defer cancel()
	ctx, sp := trace.Start(ctx, "nwr.repair")
	var firstErr error
	for _, t := range job.stale {
		if c.writeReplica(ctx, t.target, job.newest) == nil {
			if t.found {
				c.bump(func(s *Stats) { s.ReadRepairs++ })
			} else {
				c.bump(func(s *Stats) { s.ReplicaSupplements++ })
			}
		} else if firstErr == nil {
			firstErr = fmt.Errorf("nwr: repair of %s for key %q failed", t.target, job.key)
		}
	}
	sp.End(firstErr)
}

// RepairBacklog returns queued plus in-flight repair jobs — the repair-queue
// depth gauge; tests also use it to wait for repairs to settle.
func (c *Coordinator) RepairBacklog() int64 { return c.pendingRepairs.Load() }

// Close stops the repair workers. It never closes the job channel, so a read
// that settles after Close still enqueues safely (the job just no longer
// drains). It claims the start latch first: workers being started by such a
// read are either all counted before the Wait or never started at all — a
// WaitGroup must not see its first Add race its Wait.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.repairQuit)
		c.repairOnce.Do(func() {})
		c.repairWG.Wait()
	})
}

// GetMany reads many keys in one replica round: each peer receives one
// nwr.get.replica covering every key it is primary for (more only when the
// answer outgrows transferBytes), reserves hedge exactly as for Get, and the
// call returns once every key has R answers. Results come one per distinct
// key, in key order.
func (c *Coordinator) GetMany(ctx context.Context, keys []string) (results []KeyResult, err error) {
	ctx, sp := trace.Start(ctx, "nwr.read")
	start := c.cfg.Now()
	defer func() {
		c.getLatency.ObserveDuration(c.cfg.Now().Sub(start))
		sp.End(err)
	}()
	c.bump(func(s *Stats) { s.BatchGets++ })
	uniq := slices.Clone(keys)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	if len(uniq) == 0 {
		return nil, nil
	}
	return c.read(ctx, uniq)
}
