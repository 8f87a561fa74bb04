package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mystore"
	"mystore/internal/cache"
	"mystore/internal/gossip"
	"mystore/internal/ring"
	"mystore/internal/transport"
	"mystore/internal/workload"
)

// AblationResult collects the design-choice studies DESIGN.md §5 lists.
type AblationResult struct {
	VNodes VNodesAblation
	NWR    []NWRAblationRow
	Hints  HintsAblation
	Cache  CacheAblation
	Gossip GossipAblation
}

// String renders every ablation.
func (r AblationResult) String() string {
	var b strings.Builder
	b.WriteString(r.VNodes.String())
	b.WriteString("\nA2 — NWR settings (paper §5.2.2 trade-off)\n")
	fmt.Fprintf(&b, "%10s %12s %12s %22s\n", "(N,W,R)", "put mean", "get mean", "puts ok w/ node down")
	for _, row := range r.NWR {
		fmt.Fprintf(&b, "%10s %10.2fms %10.2fms %21.0f%%\n",
			row.Config, row.PutMeanMs, row.GetMeanMs, row.DownSuccessPct)
	}
	b.WriteString("\n" + r.Hints.String())
	b.WriteString("\n" + r.Cache.String())
	b.WriteString("\n" + r.Gossip.String())
	return b.String()
}

// --- A1: virtual nodes ---

// VNodesAblation compares placement balance across virtual-node counts and
// key remapping between consistent hashing and mod-N (paper Eq. 1 vs 2).
type VNodesAblation struct {
	SpreadByVNodes    map[int]float64 // vnodes-per-node -> (max-min)/ideal
	ConsistentMovePct float64         // keys remapped when a 6th node joins
	ModNMovePct       float64
}

// String renders the study.
func (a VNodesAblation) String() string {
	var b strings.Builder
	b.WriteString("A1 — virtual nodes and placement (paper §5.2.1)\n")
	for _, v := range []int{1, 10, 100, 200} {
		if s, ok := a.SpreadByVNodes[v]; ok {
			fmt.Fprintf(&b, "  %4d vnodes/node: load spread (max-min)/ideal = %5.1f%%\n", v, s*100)
		}
	}
	fmt.Fprintf(&b, "  adding a 6th node remaps %.1f%% of keys (consistent hash) vs %.1f%% (hash mod N)\n",
		a.ConsistentMovePct, a.ModNMovePct)
	return b.String()
}

func runVNodesAblation(keys int) VNodesAblation {
	a := VNodesAblation{SpreadByVNodes: map[int]float64{}}
	for _, vn := range []int{1, 10, 100, 200} {
		r := ring.New(ring.WithVNodesPerWeight(vn))
		for i := 1; i <= 5; i++ {
			r.AddNode(ring.Node{ID: fmt.Sprintf("node-%d", i)}) //nolint:errcheck
		}
		counts := map[string]int{}
		for i := 0; i < keys; i++ {
			owner, _ := r.Primary(fmt.Sprintf("key-%d", i))
			counts[owner]++
		}
		min, max := keys, 0
		for i := 1; i <= 5; i++ {
			c := counts[fmt.Sprintf("node-%d", i)]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		a.SpreadByVNodes[vn] = float64(max-min) / (float64(keys) / 5)
	}
	// Remap fraction on membership change.
	r := ring.New()
	for i := 1; i <= 5; i++ {
		r.AddNode(ring.Node{ID: fmt.Sprintf("node-%d", i)}) //nolint:errcheck
	}
	before := make([]string, keys)
	for i := range before {
		before[i], _ = r.Primary(fmt.Sprintf("key-%d", i))
	}
	r.AddNode(ring.Node{ID: "node-6"}) //nolint:errcheck
	moved := 0
	for i := range before {
		if after, _ := r.Primary(fmt.Sprintf("key-%d", i)); after != before[i] {
			moved++
		}
	}
	a.ConsistentMovePct = 100 * float64(moved) / float64(keys)

	m := ring.NewModN("n1", "n2", "n3", "n4", "n5")
	beforeMod := make([]string, keys)
	for i := range beforeMod {
		beforeMod[i], _ = m.Primary(fmt.Sprintf("key-%d", i))
	}
	m.AddNode("n6")
	movedMod := 0
	for i := range beforeMod {
		if after, _ := m.Primary(fmt.Sprintf("key-%d", i)); after != beforeMod[i] {
			movedMod++
		}
	}
	a.ModNMovePct = 100 * float64(movedMod) / float64(keys)
	return a
}

// --- A2: NWR settings ---

// NWRAblationRow measures one (N,W,R) configuration.
type NWRAblationRow struct {
	Config         string
	PutMeanMs      float64
	GetMeanMs      float64
	DownSuccessPct float64 // put success with one node down, hints off
}

func runNWRAblation(ops int) ([]NWRAblationRow, error) {
	configs := []struct {
		name    string
		n, w, r int
	}{
		{"(3,3,1)", 3, 3, 1}, // high consistency
		{"(3,2,1)", 3, 2, 1}, // the paper's default
		{"(3,1,1)", 3, 1, 1}, // high availability
	}
	var rows []NWRAblationRow
	for _, cfg := range configs {
		cl, err := mystore.StartCluster(mystore.ClusterOptions{
			Nodes: 5, N: cfg.n, W: cfg.w, R: cfg.r,
			LatencyBase: lanBase, Bandwidth: lanBandwidth,
			DisableHints: true,
		})
		if err != nil {
			return nil, err
		}
		client, err := cl.Client()
		if err != nil {
			cl.Close()
			return nil, err
		}
		ctx := context.Background()
		putH, getH := workload.NewHistogram(), workload.NewHistogram()
		payload := make([]byte, 32<<10)
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("nwr-%s-%d", cfg.name, i)
			t0 := time.Now()
			if err := client.Put(ctx, key, payload); err == nil {
				putH.Observe(time.Since(t0))
			}
			t0 = time.Now()
			if _, err := client.Get(ctx, key); err == nil {
				getH.Observe(time.Since(t0))
			}
		}
		// Availability with one replica-holding node down and no hints.
		cl.StopNode(4)
		okDown := 0
		for i := 0; i < ops; i++ {
			if err := client.Put(ctx, fmt.Sprintf("down-%d", i), payload); err == nil {
				okDown++
			}
		}
		rows = append(rows, NWRAblationRow{
			Config:         cfg.name,
			PutMeanMs:      float64(putH.Mean()) / 1e6,
			GetMeanMs:      float64(getH.Mean()) / 1e6,
			DownSuccessPct: 100 * float64(okDown) / float64(ops),
		})
		cl.Close()
	}
	return rows, nil
}

// --- A3: hinted handoff ---

// HintsAblation compares put success under faults with and without hinted
// handoff.
type HintsAblation struct {
	WithHintsPct    float64
	WithoutHintsPct float64
}

// String renders the study.
func (a HintsAblation) String() string {
	return fmt.Sprintf("A3 — hinted handoff under one downed replica node\n  puts ok: with hints %.1f%%, without %.1f%%\n",
		a.WithHintsPct, a.WithoutHintsPct)
}

func runHintsAblation(ops int) (HintsAblation, error) {
	var a HintsAblation
	run := func(disable bool) (float64, error) {
		cl, err := mystore.StartCluster(mystore.ClusterOptions{
			Nodes: 5, DisableHints: disable,
		})
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		client, err := cl.Client()
		if err != nil {
			return 0, err
		}
		cl.StopNode(3)
		time.Sleep(500 * time.Millisecond) // let the detector notice
		ok := 0
		ctx := context.Background()
		for i := 0; i < ops; i++ {
			if err := client.Put(ctx, fmt.Sprintf("h-%d", i), []byte("v")); err == nil {
				ok++
			}
		}
		return 100 * float64(ok) / float64(ops), nil
	}
	var err error
	if a.WithHintsPct, err = run(false); err != nil {
		return a, err
	}
	if a.WithoutHintsPct, err = run(true); err != nil {
		return a, err
	}
	return a, nil
}

// --- A4: cache tier ---

// CacheAblation compares gateway read latency with and without the LRU
// cache tier.
type CacheAblation struct {
	WithCacheMeanMs    float64
	WithoutCacheMeanMs float64
	HitRatePct         float64
}

// String renders the study.
func (a CacheAblation) String() string {
	return fmt.Sprintf("A4 — cache tier on reads\n  mean TTLB: with cache %.2fms (hit rate %.0f%%), without %.2fms\n",
		a.WithCacheMeanMs, a.HitRatePct, a.WithoutCacheMeanMs)
}

// --- A5: gossip style ---

// GossipAblation compares rounds-to-convergence of push-pull vs push-only
// gossip on a 16-node simulated cluster.
type GossipAblation struct {
	PushPullRounds int
	PushOnlyRounds int
}

// String renders the study.
func (a GossipAblation) String() string {
	return fmt.Sprintf("A5 — gossip style: state converged in %d rounds (push-pull) vs %d (push-only), 16 nodes\n",
		a.PushPullRounds, a.PushOnlyRounds)
}

func runGossipAblation() GossipAblation {
	measure := func(pushOnly bool) int {
		net := transport.NewMemNetwork()
		now := time.Unix(9000, 0)
		var gs []*gossip.Gossiper
		for i := 0; i < 16; i++ {
			ep, _ := net.Endpoint(fmt.Sprintf("g-%d", i))
			g := gossip.New(ep, gossip.Config{
				Seeds:    []string{"g-0"},
				Interval: time.Second,
				Now:      func() time.Time { return now },
				Seed:     int64(i + 1),
				PushOnly: pushOnly,
			})
			ep.SetHandler(g.HandleMessage)
			gs = append(gs, g)
		}
		ctx := context.Background()
		// Warm membership.
		for r := 0; r < 30; r++ {
			for _, g := range gs {
				g.Tick(ctx)
			}
			now = now.Add(time.Second)
		}
		gs[7].SetLocal("marker", "x")
		for round := 1; round <= 100; round++ {
			for _, g := range gs {
				g.Tick(ctx)
			}
			now = now.Add(time.Second)
			all := true
			for _, g := range gs {
				if v, _ := g.Lookup("g-7", "marker"); v != "x" {
					all = false
					break
				}
			}
			if all {
				return round
			}
		}
		return 100
	}
	return GossipAblation{
		PushPullRounds: measure(false),
		PushOnlyRounds: measure(true),
	}
}

// RunAblations runs every study at the given scale.
func RunAblations(scale Scale) (AblationResult, error) {
	scale = scale.withDefaults()
	var result AblationResult
	result.VNodes = runVNodesAblation(scale.PutItems)
	var err error
	if result.NWR, err = runNWRAblation(scale.ReadItems / 10); err != nil {
		return result, err
	}
	if result.Hints, err = runHintsAblation(scale.ReadItems / 5); err != nil {
		return result, err
	}
	if result.Cache, err = runCacheAblation(scale); err != nil {
		return result, err
	}
	result.Gossip = runGossipAblation()
	return result, nil
}

// runCacheAblation measures the gateway with and without the tier. It
// lives here but reuses the HTTP helpers from figs_http.go.
func runCacheAblation(scale Scale) (CacheAblation, error) {
	var a CacheAblation
	run := func(tier *cache.Tier) (meanMs, hitRatePct float64, err error) {
		sys, err := newMyStoreSystem(tier)
		if err != nil {
			return 0, 0, err
		}
		defer sys.Close()
		return cacheReadRun(sys, scale)
	}
	var err error
	if a.WithCacheMeanMs, a.HitRatePct, err = run(paperTier()); err != nil {
		return a, err
	}
	if a.WithoutCacheMeanMs, _, err = run(nil); err != nil {
		return a, err
	}
	return a, nil
}
