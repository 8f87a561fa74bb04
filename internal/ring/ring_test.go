package ring

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func fiveNodeRing(t *testing.T) *Ring {
	t.Helper()
	r := New()
	for i := 1; i <= 5; i++ {
		if err := r.AddNode(Node{ID: fmt.Sprintf("node-%d", i), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestHashDeterministic(t *testing.T) {
	if Hash("abc") != Hash("abc") {
		t.Fatal("Hash not deterministic")
	}
	if Hash("abc") == Hash("abd") {
		t.Fatal("distinct keys should rarely collide (these do not)")
	}
}

func TestAddRemoveNodes(t *testing.T) {
	r := New()
	if err := r.AddNode(Node{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddNode(Node{ID: "a"}); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate add err = %v", err)
	}
	if err := r.AddNode(Node{ID: ""}); err == nil {
		t.Fatal("empty id accepted")
	}
	if !r.Contains("a") || r.Len() != 1 {
		t.Fatal("Contains/Len wrong after add")
	}
	if got := r.pointCount(); got != DefaultVNodesPerWeight {
		t.Fatalf("PointCount = %d, want %d", got, DefaultVNodesPerWeight)
	}
	if err := r.RemoveNode("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveNode("a"); !errors.Is(err, ErrNodeUnknown) {
		t.Fatalf("remove absent err = %v", err)
	}
	if r.pointCount() != 0 {
		t.Fatal("points remain after removal")
	}
}

func TestEmptyRingErrors(t *testing.T) {
	r := New()
	if _, err := r.Primary("k"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Primary on empty = %v", err)
	}
	if _, err := r.Successors("k", 3); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Successors on empty = %v", err)
	}
	if _, err := r.successorsAfterNode("x", 1); !errors.Is(err, ErrEmpty) {
		t.Fatalf("SuccessorsAfterNode on empty = %v", err)
	}
}

func TestWeightScalesVNodes(t *testing.T) {
	r := New(WithVNodesPerWeight(100))
	r.AddNode(Node{ID: "light", Weight: 1}) //nolint:errcheck
	r.AddNode(Node{ID: "heavy", Weight: 4}) //nolint:errcheck
	if got := r.pointCount(); got != 500 {
		t.Fatalf("PointCount = %d, want 500", got)
	}
	// The heavy node should own roughly 4x the keys.
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		owner, err := r.Primary(fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		counts[owner]++
	}
	ratio := float64(counts["heavy"]) / float64(counts["light"])
	if ratio < 2.5 || ratio > 6.5 {
		t.Fatalf("heavy/light ownership ratio = %.2f, want ~4", ratio)
	}
}

func TestPrimaryStable(t *testing.T) {
	r := fiveNodeRing(t)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		a, _ := r.Primary(k)
		b, _ := r.Primary(k)
		if a != b {
			t.Fatalf("Primary(%s) unstable: %s vs %s", k, a, b)
		}
	}
}

func TestSuccessorsDistinctPhysicalNodes(t *testing.T) {
	r := fiveNodeRing(t)
	for i := 0; i < 500; i++ {
		owners, err := r.Successors(fmt.Sprintf("key-%d", i), 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(owners) != 3 {
			t.Fatalf("got %d owners, want 3", len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate physical node in replica set: %v", owners)
			}
			seen[o] = true
		}
	}
}

func TestSuccessorsCappedAtClusterSize(t *testing.T) {
	r := fiveNodeRing(t)
	owners, err := r.Successors("k", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 5 {
		t.Fatalf("got %d owners, want all 5", len(owners))
	}
	owners, err = r.Successors("k", 0) // n<=0 behaves as 1
	if err != nil || len(owners) != 1 {
		t.Fatalf("Successors(k, 0) = %v, %v", owners, err)
	}
}

func TestSuccessorsFirstEqualsPrimary(t *testing.T) {
	r := fiveNodeRing(t)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d", i)
		p, _ := r.Primary(k)
		s, _ := r.Successors(k, 3)
		if s[0] != p {
			t.Fatalf("Successors[0] = %s, Primary = %s", s[0], p)
		}
	}
}

func TestSuccessorsAfterNodeExcludesSelf(t *testing.T) {
	r := fiveNodeRing(t)
	succ, err := r.successorsAfterNode("node-3", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(succ) != 3 {
		t.Fatalf("got %d successors, want 3", len(succ))
	}
	for _, s := range succ {
		if s == "node-3" {
			t.Fatal("node appears in its own successor list")
		}
	}
}

// TestIncrementalScalability is the core consistent-hashing property (paper
// §2): adding one node to an N-node ring remaps about K/(N+1) keys, not
// nearly all of them as mod-N does (the A1 ablation measures that contrast).
func TestIncrementalScalability(t *testing.T) {
	const keys = 20000
	r := fiveNodeRing(t)
	before := make([]string, keys)
	for i := range before {
		before[i], _ = r.Primary(fmt.Sprintf("key-%d", i))
	}
	if err := r.AddNode(Node{ID: "node-6", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range before {
		after, _ := r.Primary(fmt.Sprintf("key-%d", i))
		if after != before[i] {
			moved++
			if after != "node-6" {
				t.Fatalf("key moved to %s, not the new node", after)
			}
		}
	}
	frac := float64(moved) / keys
	// Ideal is 1/6 ≈ 0.167; virtual nodes keep it close.
	if frac < 0.10 || frac > 0.25 {
		t.Fatalf("moved fraction = %.3f, want ~1/6", frac)
	}

}

// TestBalance verifies virtual nodes even out placement (paper Fig 5): with
// equal weights, each of 5 nodes should own about 20% of keys.
func TestBalance(t *testing.T) {
	r := fiveNodeRing(t)
	const keys = 50000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		owner, _ := r.Primary(fmt.Sprintf("key-%d", i))
		counts[owner]++
	}
	for node, c := range counts {
		frac := float64(c) / keys
		if frac < 0.12 || frac > 0.28 {
			t.Errorf("node %s owns %.1f%% of keys, want ~20%%", node, frac*100)
		}
	}
}

// TestFewVNodesImbalance documents why virtual nodes exist: with a single
// point per node, balance is far worse. This is the ablation the paper's
// §5.2.1 motivates.
func TestFewVNodesImbalance(t *testing.T) {
	spread := func(perWeight int) float64 {
		r := New(WithVNodesPerWeight(perWeight))
		for i := 1; i <= 5; i++ {
			r.AddNode(Node{ID: fmt.Sprintf("node-%d", i)}) //nolint:errcheck
		}
		counts := map[string]int{}
		const keys = 20000
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
		return float64(max-min) / float64(keys)
	}
	if one, many := spread(1), spread(200); one <= many {
		t.Fatalf("1 vnode spread %.3f should exceed 200-vnode spread %.3f", one, many)
	}
}

func TestCloneIndependent(t *testing.T) {
	r := fiveNodeRing(t)
	c := r.Clone()
	if err := c.RemoveNode("node-1"); err != nil {
		t.Fatal(err)
	}
	if !r.Contains("node-1") {
		t.Fatal("mutating clone affected original")
	}
	if c.Len() != 4 || r.Len() != 5 {
		t.Fatalf("Len = %d/%d", c.Len(), r.Len())
	}
}

func TestNodesSorted(t *testing.T) {
	r := fiveNodeRing(t)
	nodes := r.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].ID >= nodes[i].ID {
			t.Fatalf("Nodes not sorted: %v", nodes)
		}
	}
}

func TestPrimaryIsSuccessorProperty(t *testing.T) {
	r := fiveNodeRing(t)
	f := func(key string) bool {
		p, err1 := r.Primary(key)
		s, err2 := r.Successors(key, 5)
		if err1 != nil || err2 != nil || len(s) != 5 {
			return false
		}
		seen := map[string]bool{}
		for _, id := range s {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return s[0] == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPrimary(b *testing.B) {
	r := New()
	for i := 0; i < 5; i++ {
		r.AddNode(Node{ID: fmt.Sprintf("node-%d", i)}) //nolint:errcheck
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Primary(fmt.Sprintf("key-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuccessors3(b *testing.B) {
	r := New()
	for i := 0; i < 5; i++ {
		r.AddNode(Node{ID: fmt.Sprintf("node-%d", i)}) //nolint:errcheck
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Successors(fmt.Sprintf("key-%d", i), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// successorsAfterNode returns the first n distinct physical nodes clockwise
// after node's first virtual point, skipping the node itself.
func (r *Ring) successorsAfterNode(id string, n int) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil, ErrEmpty
	}
	start := Hash(vnodeLabel(id, 0))
	owners, err := r.successorsFromLocked(start, n+1)
	if err != nil {
		return nil, err
	}
	out := owners[:0]
	for _, o := range owners {
		if o != id {
			out = append(out, o)
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out, nil
}

// pointCount returns the number of virtual points.
func (r *Ring) pointCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.points)
}
