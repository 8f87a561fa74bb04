package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mystore"
	"mystore/internal/faults"
)

// ChaosResult reports a chaos soak: randomized Table 2 faults plus directed
// node crash-restarts (WAL recovery on the same directory) and network
// partitions, over a durable 5-node cluster, with the resilience invariants
// checked after heal:
//
//  1. every acknowledged Put is readable with its exact value,
//  2. all hint queues drain to zero,
//  3. no request overran its deadline by more than one replica CallTimeout.
type ChaosResult struct {
	Duration      time.Duration
	Ops           int64
	AckedPuts     int64
	OpFailures    int64 // availability events during chaos (allowed)
	CrashRestarts int
	Partitions    int
	FaultsFired   map[faults.Kind]int64

	LostWrites         int64 // invariant 1 violations
	ValueViolations    int64 // successful mid-chaos read returned wrong bytes
	HintsAtEnd         int   // invariant 2: must be 0
	MaxOvershoot       time.Duration
	DeadlineViolations int64 // invariant 3 violations
	BreakersOpened     int64

	// HedgedReads counts reserve replica reads launched by the hedge timer
	// or failed reads during the soak, one per key and reserve
	// (informational — chaos makes hedging fire constantly).
	HedgedReads int64
	// ReadQuorumViolations is invariant 4: the read path's tripwire for a
	// read, single-key or batched, that settled a key with fewer than R
	// responses.
	// Hedged reads must never weaken the R contract, so this must stay 0.
	ReadQuorumViolations int64
	// VersionRegressions is invariant 5: anti-entropy, rebalance and
	// streamed transfers must never replace a record with an older version.
	// Every node's apply path counts such regressions; the sum must stay 0.
	VersionRegressions int64
	// TornTables is invariant 6: nodes run the lsm engine with a memtable
	// small enough that flushes and compactions are continuously in flight,
	// and crashes are kill -9 (in-flight table writes abandoned torn on
	// disk). After heal, every node's table set is checksum-scrubbed: a
	// recovery that loaded a torn or corrupt table counts here. Must be 0.
	TornTables int64

	// StrongAckedPuts counts linearizable writes acknowledged through the CP
	// tier mid-chaos (informational).
	StrongAckedPuts int64
	// LeaderKills counts kill -9s that landed on a node while it led a
	// consensus range with strong proposals in flight (informational — the
	// schedule aims for leaders, so this should be > 0).
	LeaderKills int
	// StrongLost is invariant 7a: an acked strong write — a unique key or a
	// register update — unreadable or rolled back after heal. Must be 0.
	StrongLost int64
	// StrongReorders is invariant 7b: a strong read of a single-writer
	// register returned a sequence older than one the writer had already
	// seen acknowledged — linearizability lost across a leader change.
	// Must be 0.
	StrongReorders int64
}

// Violations totals the invariant breaches; zero means the soak passed.
func (r ChaosResult) Violations() int64 {
	return r.LostWrites + r.ValueViolations + int64(r.HintsAtEnd) + r.DeadlineViolations +
		r.ReadQuorumViolations + r.VersionRegressions + r.TornTables +
		r.StrongLost + r.StrongReorders
}

// String summarizes the run.
func (r ChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos — %v of faults + %d crash-restarts + %d partitions over a durable 5-node cluster\n",
		r.Duration.Round(time.Second), r.CrashRestarts, r.Partitions)
	fmt.Fprintf(&b, "  ops %d (%d acked Puts), op failures during chaos %d (availability events, allowed)\n",
		r.Ops, r.AckedPuts, r.OpFailures)
	fmt.Fprintf(&b, "  faults fired: %v; breakers opened %d times\n", r.FaultsFired, r.BreakersOpened)
	fmt.Fprintf(&b, "  invariant 1 — acked writes lost after heal:   %d\n", r.LostWrites)
	fmt.Fprintf(&b, "  invariant 1b — wrong values served:           %d\n", r.ValueViolations)
	fmt.Fprintf(&b, "  invariant 2 — hints left undelivered:         %d\n", r.HintsAtEnd)
	fmt.Fprintf(&b, "  invariant 3 — deadline overruns > CallTimeout: %d (max overshoot %v)\n",
		r.DeadlineViolations, r.MaxOvershoot.Round(time.Millisecond))
	fmt.Fprintf(&b, "  invariant 4 — reads settled below R quorum:    %d (%d reads hedged)\n",
		r.ReadQuorumViolations, r.HedgedReads)
	fmt.Fprintf(&b, "  invariant 5 — repair regressed record versions: %d\n", r.VersionRegressions)
	fmt.Fprintf(&b, "  invariant 6 — torn/corrupt tables after kill -9: %d\n", r.TornTables)
	fmt.Fprintf(&b, "  invariant 7 — strong writes lost %d / reordered %d (%d acked, %d leader kills)\n",
		r.StrongLost, r.StrongReorders, r.StrongAckedPuts, r.LeaderKills)
	if r.Violations() == 0 {
		fmt.Fprintf(&b, "  PASS: no acked write was lost\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: %d invariant violations\n", r.Violations())
	}
	return b.String()
}

// chaosCallTimeout bounds each replica RPC during the soak; the deadline
// invariant allows at most this much overshoot past an op's own deadline.
const chaosCallTimeout = 300 * time.Millisecond

// RunChaos drives the soak. dir hosts the nodes' durable stores (WAL + lsm
// tables); crash-restarted nodes recover from it.
func RunChaos(scale Scale, dir string) (ChaosResult, error) {
	scale = scale.withDefaults()
	result := ChaosResult{Duration: 4 * scale.StepDuration, FaultsFired: map[faults.Kind]int64{}}
	opTimeout := 4 * chaosCallTimeout

	// Nodes run the lsm engine with a deliberately tiny memtable, so the
	// soak's write load keeps flushes and background compactions in flight —
	// which is exactly when the kill -9 crashes below land.
	cl, err := mystore.StartCluster(mystore.ClusterOptions{
		Nodes:              5,
		DataDir:            dir,
		Durable:            true,
		ReplicaCallTimeout: chaosCallTimeout,
		GossipInterval:     100 * time.Millisecond,
		MemtableBytes:      32 << 10,
		StrongRanges:       4,
	})
	if err != nil {
		return result, err
	}
	defer cl.Close()

	// Table 2-shaped plan, with short delays so the compressed soak keeps
	// moving; breakdowns are recovered during the heal phase.
	inj := faults.NewInjector(faults.Plan{
		faults.NetworkException: 0.05,
		faults.DiskIOError:      0.002,
		faults.BlockingProcess:  0.002,
		faults.NodeBreakdown:    0.001,
	}, scale.Seed)
	inj.BlockDelay = 2 * time.Millisecond
	inj.NetworkDelay = 2 * time.Millisecond

	// chaosActive gates every injected fault. OnLocalOp closures are
	// installed once per node lifetime — before the node serves traffic —
	// and never reassigned, so flipping this flag is the only mutation.
	// No simulated disks here: chaos measures survival, not service time,
	// and disk queueing would conflate overload with failure.
	var chaosActive atomic.Bool
	chaosActive.Store(true)
	wireNode := func(node *mystore.Node) {
		addr := node.Addr()
		node.Coordinator().OnLocalOp = func(op string, bytes int) error {
			if !chaosActive.Load() || op == "read-transfer" {
				return nil
			}
			_, err := inj.Roll(addr)
			return err
		}
	}
	cl.Network().SetFault(func(from, to, msgType string) error {
		if chaosActive.Load() && (inj.IsDown(to) || inj.IsDown(from)) {
			return faults.ErrNodeDown
		}
		return nil
	})
	for _, node := range cl.Nodes() {
		wireNode(node)
	}
	client, err := cl.Client()
	if err != nil {
		return result, err
	}

	// Acked-write ledger: every key is written exactly once (unique per
	// writer + sequence), so "readable with its exact value after heal" is
	// unambiguous — no LWW tiebreak can excuse a miss.
	var mu sync.Mutex
	acked := map[string][]byte{}
	var ops, ackedPuts, opFailures, valueViolations, deadlineViolations int64
	var maxOvershoot int64 // nanos, atomically maxed

	noteOvershoot := func(deadline time.Time) {
		over := time.Since(deadline)
		if over <= 0 {
			return
		}
		for {
			prev := atomic.LoadInt64(&maxOvershoot)
			if int64(over) <= prev || atomic.CompareAndSwapInt64(&maxOvershoot, prev, int64(over)) {
				break
			}
		}
		if over > chaosCallTimeout {
			atomic.AddInt64(&deadlineViolations, 1)
		}
	}

	churnCtx, stopChurn := context.WithCancel(context.Background())
	defer stopChurn()
	var writerWG sync.WaitGroup
	const writers = 6
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(scale.Seed + int64(w)*7919))
			var mine []string // keys this writer has had acked
			for seq := 0; churnCtx.Err() == nil; seq++ {
				opCtx, cancel := context.WithTimeout(context.Background(), opTimeout)
				deadline := time.Now().Add(opTimeout)
				if len(mine) > 0 && rng.Intn(4) == 0 {
					// Read back one of our own acked writes mid-chaos: errors
					// are availability events, wrong bytes are violations.
					key := mine[rng.Intn(len(mine))]
					val, err := client.Get(opCtx, key)
					noteOvershoot(deadline)
					atomic.AddInt64(&ops, 1)
					if err != nil {
						atomic.AddInt64(&opFailures, 1)
					} else {
						mu.Lock()
						want := acked[key]
						mu.Unlock()
						if !bytes.Equal(val, want) {
							atomic.AddInt64(&valueViolations, 1)
						}
					}
					cancel()
					continue
				}
				key := fmt.Sprintf("chaos-%d-%06d", w, seq)
				val := []byte(fmt.Sprintf("val-%d-%06d-%d", w, seq, rng.Int63()))
				err := client.Put(opCtx, key, val)
				noteOvershoot(deadline)
				cancel()
				atomic.AddInt64(&ops, 1)
				if err != nil {
					atomic.AddInt64(&opFailures, 1)
					continue
				}
				atomic.AddInt64(&ackedPuts, 1)
				mu.Lock()
				acked[key] = val
				mu.Unlock()
				mine = append(mine, key)
			}
		}(w)
	}

	// Strong writers (invariant 7). Each owns one register key it updates
	// with a strictly increasing sequence, plus a stream of unique keys —
	// all through the CP tier. After every acked register write the writer
	// reads the register back strongly: a sequence older than its highest
	// acked one means a leader change served a rolled-back prefix, which
	// is exactly what the lease + term fencing must prevent. Failures are
	// availability events (elections in flight); only acked state counts.
	strongAcked := map[string][]byte{}
	regMax := make([]int64, 2)
	for i := range regMax {
		regMax[i] = -1
	}
	var strongAckedPuts, strongReorders int64
	const strongWriters = 2
	for w := 0; w < strongWriters; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			reg := fmt.Sprintf("strongreg-%d", w)
			for seq := int64(0); churnCtx.Err() == nil; seq++ {
				opCtx, cancel := context.WithTimeout(context.Background(), opTimeout)
				key := fmt.Sprintf("strong-%d-%06d", w, seq)
				val := []byte(fmt.Sprintf("sval-%d-%06d", w, seq))
				err := client.StrongPut(opCtx, key, val)
				atomic.AddInt64(&ops, 1)
				if err != nil {
					atomic.AddInt64(&opFailures, 1)
				} else {
					atomic.AddInt64(&strongAckedPuts, 1)
					mu.Lock()
					strongAcked[key] = val
					mu.Unlock()
				}
				if err := client.StrongPut(opCtx, reg, []byte(fmt.Sprintf("%d", seq))); err != nil {
					atomic.AddInt64(&opFailures, 1)
				} else {
					atomic.AddInt64(&strongAckedPuts, 1)
					atomic.StoreInt64(&regMax[w], seq)
				}
				if got, err := client.StrongGet(opCtx, reg); err == nil {
					var have int64
					fmt.Sscanf(string(got), "%d", &have)
					if floor := atomic.LoadInt64(&regMax[w]); floor >= 0 && have < floor {
						atomic.AddInt64(&strongReorders, 1)
					}
				}
				cancel()
			}
		}(w)
	}

	// leaderVictim aims a crash at whichever crashable node currently leads
	// a strong register's range — so the kill -9 lands while that leader
	// has proposals in flight. Node 0 (the gossip seed) stays protected;
	// when no crashable leader exists the pick falls back to random.
	leaderVictim := func(rng *rand.Rand) (int, bool) {
		nodes := cl.Nodes()
		for w := 0; w < strongWriters; w++ {
			reg := fmt.Sprintf("strongreg-%d", w)
			for i := 1; i < len(nodes); i++ {
				if cns := nodes[i].Consensus(); cns != nil && cns.LeadsKey(reg) {
					return i, true
				}
			}
		}
		return 1 + rng.Intn(4), false
	}

	// The fault schedule: two cycles of kill -9 → WAL-recovery restart →
	// partition → heal, spread over the soak window. KillNode abandons the
	// victim's store mid-flight: no flush, no fsync, any in-progress table
	// write left torn on disk — recovery must come from the WAL tail past
	// the last flush checkpoint plus whatever tables committed. Node 0 is
	// the gossip seed and is never crashed (the paper's deployment protects
	// its seed the same way).
	rng := rand.New(rand.NewSource(scale.Seed * 31))
	step := result.Duration / 8
	for cycle := 0; cycle < 2; cycle++ {
		victim, ledRange := leaderVictim(rng)
		if ledRange {
			result.LeaderKills++
		}
		if err := cl.KillNode(victim); err != nil {
			return result, fmt.Errorf("chaos: kill node %d: %w", victim, err)
		}
		time.Sleep(step)
		if _, err := cl.RestartNodeFresh(victim, wireNode); err != nil {
			return result, fmt.Errorf("chaos: restart node %d: %w", victim, err)
		}
		result.CrashRestarts++
		time.Sleep(step)

		a := 1 + rng.Intn(4)
		b := 1 + rng.Intn(4)
		for b == a {
			b = 1 + rng.Intn(4)
		}
		addrs := cl.Addrs()
		cl.Network().Partition(addrs[a], addrs[b])
		result.Partitions++
		time.Sleep(step)
		cl.Network().Heal(addrs[a], addrs[b])
		time.Sleep(step)
	}
	stopChurn()
	writerWG.Wait()

	// Heal: stop injecting, recover broken-down nodes, reopen everything,
	// and let gossip reconverge.
	chaosActive.Store(false)
	for _, down := range inj.Down() {
		inj.Recover(down)
	}
	for i := range cl.Nodes() {
		cl.RestartNode(i)
	}
	cl.WaitConverged(10 * time.Second)

	// Settle: drive the recovery machinery to completion rather than waiting
	// on tick phase — writeback of parked hints, rebalance of records whose
	// owners changed while nodes were out of the ring, and anti-entropy for
	// whatever the first two missed.
	settle := func() {
		for _, node := range cl.Nodes() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			node.Coordinator().DeliverHints(sctx)
			node.Rebalance(sctx)
			node.AntiEntropyRound(sctx)
			cancel()
		}
	}

	// Invariant 2: hint queues must drain to zero.
	drainDeadline := time.Now().Add(30 * time.Second)
	for {
		settle()
		total := 0
		for _, node := range cl.Nodes() {
			total += node.Coordinator().HintCount()
		}
		if total == 0 || time.Now().After(drainDeadline) {
			result.HintsAtEnd = total
			break
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Invariant 1: every acked Put must be readable with its exact value.
	// Recovery is allowed bounded time; a write still missing when the
	// deadline passes is lost.
	mu.Lock()
	missing := make(map[string][]byte, len(acked))
	for k, v := range acked {
		missing[k] = v
	}
	mu.Unlock()
	verifyDeadline := time.Now().Add(30 * time.Second)
	for len(missing) > 0 {
		for key, want := range missing {
			vctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			got, err := client.Get(vctx, key)
			cancel()
			if err == nil && bytes.Equal(got, want) {
				delete(missing, key)
			} else if err == nil && !bytes.Equal(got, want) {
				// A wrong value can never become right again under LWW of
				// once-written keys; count it immediately.
				result.ValueViolations++
				delete(missing, key)
			}
		}
		if len(missing) == 0 || time.Now().After(verifyDeadline) {
			break
		}
		settle()
	}
	result.LostWrites = int64(len(missing))

	// Invariant 7: every acked strong write must read back — strongly, so
	// the check itself exercises post-heal elections — with its exact
	// value, and each register must sit at or past its writer's highest
	// acked sequence (an older value is an acked update rolled back by a
	// leader change).
	strongMissing := make(map[string][]byte, len(strongAcked))
	for k, v := range strongAcked {
		strongMissing[k] = v
	}
	strongDeadline := time.Now().Add(30 * time.Second)
	for len(strongMissing) > 0 {
		for key, want := range strongMissing {
			vctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			got, err := client.StrongGet(vctx, key)
			cancel()
			if err == nil && bytes.Equal(got, want) {
				delete(strongMissing, key)
			} else if err == nil {
				result.StrongLost++
				delete(strongMissing, key)
			}
		}
		if len(strongMissing) == 0 || time.Now().After(strongDeadline) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	result.StrongLost += int64(len(strongMissing))
	for w := 0; w < strongWriters; w++ {
		floor := atomic.LoadInt64(&regMax[w])
		if floor < 0 {
			continue
		}
		vctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		got, err := client.StrongGet(vctx, fmt.Sprintf("strongreg-%d", w))
		cancel()
		var have int64 = -1
		if err == nil {
			fmt.Sscanf(string(got), "%d", &have)
		}
		if have < floor {
			result.StrongLost++
		}
	}
	result.StrongAckedPuts = strongAckedPuts
	result.StrongReorders = strongReorders

	// Invariant 6: every surviving table passes a full checksum scrub — a
	// torn flush or compaction output was never installed.
	for _, node := range cl.Nodes() {
		if eng := node.Store().Engine(); eng != nil {
			if err := eng.Scrub(); err != nil {
				result.TornTables++
			}
		}
	}

	for _, node := range cl.Nodes() {
		result.BreakersOpened += node.Breakers().Stats().Opened
		st := node.Coordinator().Stats()
		result.HedgedReads += st.HedgedReads
		result.ReadQuorumViolations += st.ReadQuorumViolations
		result.VersionRegressions += node.VersionRegressions()
	}
	result.Ops = ops
	result.AckedPuts = ackedPuts
	result.OpFailures = opFailures
	result.ValueViolations += valueViolations
	result.DeadlineViolations = deadlineViolations
	result.MaxOvershoot = time.Duration(maxOvershoot)
	result.FaultsFired = inj.Counts()
	return result, nil
}
