package nwr

// The quorum-first read path. A read dispatches its R primary replica reads
// immediately and parks the remaining N−R as reserves; the reserves launch
// when a hedge timer fires (recent p95 of read latency), when a primary
// fails, or — at the latest — once the quorum is met, as background repair
// probes. The caller gets an answer as soon as R replicas respond; the
// stragglers finish on a detached context and feed the async repair pool, so
// every read still drives repair and replica supplementation across all N
// replicas ("if replications are less than N ... some more replications are
// supplemented", §5.2.2) without paying max-over-N latency for it.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mystore/internal/bson"
	"mystore/internal/trace"
)

// minHedgeDelay floors the adaptive hedge delay: below ~1ms the timer fires
// on ordinary scheduling jitter and the reserves stop being reserves.
const minHedgeDelay = time.Millisecond

// hedgeRecomputeEvery bounds how often the adaptive delay re-snapshots the
// read-latency histogram; Snapshot allocates and reads are hot.
const hedgeRecomputeEvery = 100 * time.Millisecond

// repairWorkers is how many goroutines drain the async read-repair queue.
const repairWorkers = 2

// stragglerGrace is how long past a replica call's own timeout the
// background finisher keeps draining answers before repairing with what it
// has.
const stragglerGrace = time.Second

// hedgeDelay returns how long the reserves stay parked: the configured
// override, else the recent p95 of this coordinator's read latency floored
// at minHedgeDelay and capped at CallTimeout/2.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
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

// Get reads key with the read quorum: dispatch replica reads, return as soon
// as R replicas answer (quorum-first, resolved last-write-wins), and let the
// stragglers finish in the background feeding read repair / replica
// supplementation ("if replications are less than N ... some more
// replications are supplemented", §5.2.2).
func (c *Coordinator) Get(ctx context.Context, key string) (val []byte, err error) {
	ctx, sp := trace.Start(ctx, "nwr.read")
	start := c.cfg.Now()
	defer func() {
		c.getLatency.ObserveDuration(c.cfg.Now().Sub(start))
		sp.End(err)
	}()
	return c.coalescedRead(ctx, key)
}

// flight is one in-progress replica fan-out generation for a key; readers
// arriving while it is in flight wait on done instead of fanning out again.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// coalescedRead is the per-key singleflight in front of the read path: the
// first reader of a key starts a fan-out generation, readers arriving while
// it is in flight share its outcome, so a hot key costs one fan-out per
// generation instead of one per client. The flight is unregistered before
// its result publishes, so a reader arriving after completion starts a fresh
// generation and never sees a stale answer. The generation runs detached
// from the leader's context — a follower may outlive the leader — bounded by
// its own timeout; every caller, leader included, waits under its own
// context.
func (c *Coordinator) coalescedRead(ctx context.Context, key string) ([]byte, error) {
	c.flightMu.Lock()
	f, joined := c.flights[key]
	if !joined {
		f = &flight{done: make(chan struct{})}
		c.flights[key] = f
	}
	c.flightMu.Unlock()

	if joined {
		c.bump(func(s *Stats) { s.CoalescedReads++ })
	} else {
		fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*c.cfg.CallTimeout)
		go func() {
			defer cancel()
			val, err := c.readQuorum(fctx, key)
			c.flightMu.Lock()
			delete(c.flights, key)
			c.flightMu.Unlock()
			f.val, f.err = val, err
			close(f.done)
		}()
	}
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: abandoned coalesced read for key %q: %v",
			ErrQuorumRead, key, ctx.Err())
	}
}

// replicaAnswer is one replica's response to a read.
type replicaAnswer struct {
	target string
	rec    Record
	found  bool
	err    error
}

// readOp is the per-read state machine: which replicas were dispatched,
// which are still parked as reserves, and what has answered so far. It is
// only ever touched by one goroutine at a time — the quorum loop until
// settle, then the background finisher.
type readOp struct {
	c          *Coordinator
	key        string
	bctx       context.Context // detached from the caller; values only
	answers    chan replicaAnswer
	pending    []string // replicas not yet dispatched
	dispatched int
	collected  []replicaAnswer
	responded  int
}

// readQuorum runs one replica fan-out generation for key and returns at R
// responses.
func (c *Coordinator) readQuorum(ctx context.Context, key string) ([]byte, error) {
	targets, err := c.ring.Successors(key, c.cfg.N)
	if err != nil {
		return nil, err
	}
	op := &readOp{
		c:       c,
		key:     key,
		bctx:    context.WithoutCancel(ctx),
		answers: make(chan replicaAnswer, len(targets)),
	}
	primaries := c.cfg.R
	if primaries > len(targets) {
		primaries = len(targets)
	}
	for _, t := range targets[:primaries] {
		op.dispatch(t)
	}
	op.pending = append(op.pending, targets[primaries:]...)

	var hedgeCh <-chan time.Time
	if len(op.pending) > 0 {
		timer := time.NewTimer(c.hedgeDelay())
		defer timer.Stop()
		hedgeCh = timer.C
	}

	for len(op.collected) < op.dispatched {
		select {
		case a := <-op.answers:
			op.collected = append(op.collected, a)
			if a.err == nil {
				op.responded++
				if op.responded >= c.cfg.R {
					return op.settle()
				}
			} else {
				// A failed primary is the strongest hedge signal: launch the
				// reserves now regardless of the timer — correctness, not a
				// latency optimisation.
				op.launchPending(true)
				hedgeCh = nil
			}
		case <-hedgeCh:
			op.launchPending(true)
			hedgeCh = nil
		case <-ctx.Done():
			c.bump(func(s *Stats) { s.GetFailures++ })
			return nil, fmt.Errorf("%w: abandoned at %d/%d answers for key %q: %v",
				ErrQuorumRead, op.responded, c.cfg.R, key, ctx.Err())
		}
	}
	// Every dispatched replica has answered without reaching the early
	// return: the fan-out fell short of R, and the read fails. (The loop
	// cannot exit with reserves still parked — any primary failure launches
	// them.)
	c.bump(func(s *Stats) { s.GetFailures++ })
	return nil, fmt.Errorf("%w: %d/%d replicas answered for key %q",
		ErrQuorumRead, op.responded, c.cfg.R, key)
}

// dispatch launches one replica read; its answer lands on op.answers.
func (op *readOp) dispatch(target string) {
	op.dispatched++
	go func() {
		rctx, rsp := trace.Start(op.bctx, "nwr.replica.read")
		rsp.SetPeer(target)
		rec, found, err := op.c.readReplica(rctx, target, op.key)
		rsp.End(err)
		op.answers <- replicaAnswer{target: target, rec: rec, found: found, err: err}
	}()
}

// launchPending dispatches the parked reserves. hedge marks launches that
// happen while the caller is still waiting (timer or error signal) — those
// count as hedged reads; the post-settle launch from finish does not.
func (op *readOp) launchPending(hedge bool) {
	if len(op.pending) == 0 {
		return
	}
	if hedge {
		op.c.bump(func(s *Stats) { s.HedgedReads += int64(len(op.pending)) })
		_, hsp := trace.Start(op.bctx, "nwr.read.hedge")
		hsp.End(nil)
	}
	for _, t := range op.pending {
		op.dispatch(t)
	}
	op.pending = nil
}

// newestOf resolves last-write-wins over the successful answers.
func newestOf(answers []replicaAnswer) (Record, bool) {
	var newest Record
	have := false
	for _, a := range answers {
		if a.err == nil && a.found && (!have || a.rec.Newer(newest)) {
			newest = a.rec
			have = true
		}
	}
	return newest, have
}

// settle answers the caller the moment the quorum is met. The stragglers and
// any still-parked reserves move to a background finisher that completes the
// full N-replica picture and feeds the repair pool.
func (op *readOp) settle() ([]byte, error) {
	c := op.c
	if op.responded < c.cfg.R {
		// Defensive tripwire — settle must only ever run at quorum.
		c.bump(func(s *Stats) { s.ReadQuorumViolations++ })
	}
	newest, haveNewest := newestOf(op.collected)
	c.bump(func(s *Stats) { s.Gets++ })
	go op.finish()
	if !haveNewest || newest.Deleted {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, op.key)
	}
	return newest.Val, nil
}

// finish runs after the caller already has its answer: launch the reserves
// the hedge never reached (keeping the read-all-N repair semantics without
// its latency), drain the stragglers bounded by their own RPC timeout, then
// hand the complete replica picture to the repair pool.
func (op *readOp) finish() {
	op.launchPending(false)
	timeout := time.NewTimer(op.c.cfg.CallTimeout + stragglerGrace)
	defer timeout.Stop()
collect:
	for len(op.collected) < op.dispatched {
		select {
		case a := <-op.answers:
			op.collected = append(op.collected, a)
		case <-timeout.C:
			// A straggler outlived even its own RPC timeout; repair with
			// what we have.
			break collect
		}
	}
	op.c.repairFromAnswers(op.bctx, op.key, op.collected)
}

// repairFromAnswers compares the collected answers and enqueues one repair
// job covering every responder that is stale (read repair) or missing the
// record entirely (replica supplementation).
func (c *Coordinator) repairFromAnswers(bctx context.Context, key string, answers []replicaAnswer) {
	newest, have := newestOf(answers)
	if !have {
		return
	}
	var stale []repairTarget
	for _, a := range answers {
		if a.err != nil {
			continue
		}
		if !a.found || newest.Newer(a.rec) {
			stale = append(stale, repairTarget{addr: a.target, found: a.found})
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
	stale  []repairTarget
}

type repairTarget struct {
	addr  string
	found bool // false → the replica had no record at all (supplementation)
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
		if c.writeReplica(ctx, t.addr, job.newest) {
			if t.found {
				c.bump(func(s *Stats) { s.ReadRepairs++ })
			} else {
				c.bump(func(s *Stats) { s.ReplicaSupplements++ })
			}
		} else if firstErr == nil {
			firstErr = fmt.Errorf("nwr: repair of %s for key %q failed", t.addr, job.key)
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

// KeyResult is one key's outcome within a GetMany.
type KeyResult struct {
	Key string
	Val []byte
	Err error // nil, ErrNotFound, or ErrQuorumRead
}

// peerAnswer is one peer's response to a batched replica read.
type peerAnswer struct {
	peer string
	keys []string
	recs map[string]Record // found keys only
	err  error
}

// GetMany reads many keys in one replica round: keys are grouped by replica
// set, each peer receives a single MsgGetReplicaBatch RPC covering every key
// it replicates (the local share is one batched primary-key read), and the
// call returns as soon as every key has R answers. Straggling peers finish on
// a detached context and feed read repair exactly like single-key reads.
func (c *Coordinator) GetMany(ctx context.Context, keys []string) (results []KeyResult, err error) {
	ctx, sp := trace.Start(ctx, "nwr.read.batch")
	start := c.cfg.Now()
	defer func() {
		c.getLatency.ObserveDuration(c.cfg.Now().Sub(start))
		sp.End(err)
	}()
	c.bump(func(s *Stats) { s.BatchGets++ })

	uniq := make([]string, 0, len(keys))
	dup := make(map[string]bool, len(keys))
	for _, k := range keys {
		if !dup[k] {
			dup[k] = true
			uniq = append(uniq, k)
		}
	}
	if len(uniq) == 0 {
		return nil, nil
	}

	// Group keys by replica: one batch RPC per peer.
	perPeer := make(map[string][]string)
	for _, k := range uniq {
		targets, terr := c.ring.Successors(k, c.cfg.N)
		if terr != nil {
			err = terr
			return nil, err
		}
		for _, t := range targets {
			perPeer[t] = append(perPeer[t], k)
		}
	}

	bctx := context.WithoutCancel(ctx)
	answers := make(chan peerAnswer, len(perPeer))
	for peer, pk := range perPeer {
		go func(peer string, pk []string) {
			rctx, rsp := trace.Start(bctx, "nwr.replica.read.batch")
			rsp.SetPeer(peer)
			recs, rerr := c.readReplicaBatch(rctx, peer, pk)
			rsp.End(rerr)
			answers <- peerAnswer{peer: peer, keys: pk, recs: recs, err: rerr}
		}(peer, pk)
	}

	// Per-key quorum accounting as peer answers arrive; quorum-first across
	// the whole batch — return once every key has R responses.
	perKey := make(map[string][]replicaAnswer, len(uniq))
	responded := make(map[string]int, len(uniq))
	unsettled := len(uniq)
	received := 0
collect:
	for received < len(perPeer) {
		select {
		case a := <-answers:
			received++
			for _, k := range a.keys {
				ans := replicaAnswer{target: a.peer, err: a.err}
				if a.err == nil {
					if rec, ok := a.recs[k]; ok {
						ans.rec, ans.found = rec, true
					}
					responded[k]++
					if responded[k] == c.cfg.R {
						unsettled--
					}
				}
				perKey[k] = append(perKey[k], ans)
			}
			if unsettled == 0 {
				break collect
			}
		case <-ctx.Done():
			c.bump(func(s *Stats) { s.GetFailures += int64(len(uniq)) })
			err = fmt.Errorf("%w: abandoned batch read: %v", ErrQuorumRead, ctx.Err())
			return nil, err
		}
	}

	earlyReturn := received < len(perPeer)
	results = make([]KeyResult, 0, len(uniq))
	for _, k := range uniq {
		kr := KeyResult{Key: k}
		newest, have := newestOf(perKey[k])
		switch {
		case responded[k] >= c.cfg.R:
			c.bump(func(s *Stats) { s.Gets++ })
			if !have || newest.Deleted {
				kr.Err = fmt.Errorf("%w: %q", ErrNotFound, k)
			} else {
				kr.Val = newest.Val
			}
		default:
			if earlyReturn {
				// Tripwire: the early break requires every key at quorum.
				c.bump(func(s *Stats) { s.ReadQuorumViolations++ })
			}
			c.bump(func(s *Stats) { s.GetFailures++ })
			kr.Err = fmt.Errorf("%w: %d/%d replicas answered for key %q",
				ErrQuorumRead, responded[k], c.cfg.R, k)
		}
		results = append(results, kr)
	}
	// perKey is handed off to the finisher; no reads of it past this point.
	go c.finishBatch(bctx, uniq, perKey, answers, len(perPeer)-received)
	return results, nil
}

// finishBatch drains the straggling peer answers after a batch read already
// returned, then enqueues repair jobs for every key with a stale or missing
// replica.
func (c *Coordinator) finishBatch(bctx context.Context, keys []string, perKey map[string][]replicaAnswer, answers chan peerAnswer, remaining int) {
	timeout := time.NewTimer(c.cfg.CallTimeout + stragglerGrace)
	defer timeout.Stop()
drain:
	for i := 0; i < remaining; i++ {
		select {
		case a := <-answers:
			for _, k := range a.keys {
				ans := replicaAnswer{target: a.peer, err: a.err}
				if a.err == nil {
					if rec, ok := a.recs[k]; ok {
						ans.rec, ans.found = rec, true
					}
				}
				perKey[k] = append(perKey[k], ans)
			}
		case <-timeout.C:
			break drain
		}
	}
	for _, k := range keys {
		c.repairFromAnswers(bctx, k, perKey[k])
	}
}

// readReplicaBatch fetches a key set from one peer in a single RPC (one
// batched primary-key read when the peer is this node). The result holds
// only keys the peer had a record for.
func (c *Coordinator) readReplicaBatch(ctx context.Context, target string, keys []string) (map[string]Record, error) {
	if target == c.self {
		return c.GetLocalBatch(keys)
	}
	if c.Live != nil && !c.Live(target) {
		return nil, fmt.Errorf("nwr: %s believed down", target)
	}
	arr := make(bson.A, len(keys))
	for i, k := range keys {
		arr[i] = k
	}
	resp, err := c.callPeer(ctx, target, MsgGetReplicaBatch, bson.D{{Key: "keys", Value: arr}})
	if err != nil {
		return nil, err
	}
	rv, _ := resp.Get("results")
	ra, ok := rv.(bson.A)
	if !ok {
		return nil, errors.New("nwr: malformed batch replica response")
	}
	out := make(map[string]Record, len(ra))
	for _, ev := range ra {
		d, isDoc := ev.(bson.D)
		if !isDoc {
			continue
		}
		if found, _ := d.Get("found"); found != true {
			continue
		}
		recDoc, has := d.Get("record")
		rd, isRec := recDoc.(bson.D)
		if !has || !isRec {
			return nil, errors.New("nwr: malformed batch replica entry")
		}
		rec, rerr := RecordFromDoc(rd)
		if rerr != nil {
			return nil, rerr
		}
		out[d.StringOr("self-key", "")] = rec
	}
	return out, nil
}

// GetLocalBatch reads many keys from the local store's primary index under
// one read-lock acquisition instead of one per key. Missing keys are simply
// absent from the result.
func (c *Coordinator) GetLocalBatch(keys []string) (map[string]Record, error) {
	if c.OnLocalOp != nil {
		if err := c.OnLocalOp("get", 0); err != nil {
			return nil, err
		}
	}
	docs := c.store.C(RecordCollection).GetEach(keys)
	out := make(map[string]Record, len(docs))
	transfer := 0
	for k, doc := range docs {
		rec, rerr := RecordFromDoc(doc)
		if rerr != nil {
			return nil, rerr
		}
		out[k] = rec
		transfer += len(rec.Val)
	}
	if c.OnLocalOp != nil && transfer > 0 {
		if err := c.OnLocalOp("read-transfer", transfer); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// handleGetReplicaBatch serves MsgGetReplicaBatch, the replica side of
// GetMany. Wire format: {"keys": [k, ...]} in; {"results": [{self-key,
// found, record?}, ...]} out, one entry per requested key in request order.
func (c *Coordinator) handleGetReplicaBatch(body bson.D) (bson.D, error) {
	kv, _ := body.Get("keys")
	arr, ok := kv.(bson.A)
	if !ok {
		return nil, errors.New("nwr: malformed batch get request")
	}
	keys := make([]string, 0, len(arr))
	for _, v := range arr {
		if s, isStr := v.(string); isStr {
			keys = append(keys, s)
		}
	}
	recs, err := c.GetLocalBatch(keys)
	if err != nil {
		return nil, err
	}
	results := make(bson.A, 0, len(keys))
	for _, k := range keys {
		rec, found := recs[k]
		entry := bson.D{{Key: "self-key", Value: k}, {Key: "found", Value: found}}
		if found {
			entry = append(entry, bson.E{Key: "record", Value: rec.ToDoc()})
		}
		results = append(results, entry)
	}
	return bson.D{{Key: "results", Value: results}}, nil
}
