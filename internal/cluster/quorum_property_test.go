package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// newQuorumHarness builds a converged cluster with explicit (N, W, R).
func newQuorumHarness(t *testing.T, nodes, n, w, r int) *harness {
	t.Helper()
	h := newHarnessNWR(t, nodes, n, w, r)
	h.converge(12)
	return h
}

// TestReadYourWritesProperty: with R + W > N (strict quorum intersection)
// and a healthy cluster, a read issued through ANY coordinator after an
// acknowledged write must return that write's value — the classic quorum
// overlap guarantee the paper's §5.2.2 configuration discussion relies on.
func TestReadYourWritesProperty(t *testing.T) {
	h := newQuorumHarness(t, 5, 3, 2, 2) // R+W = 4 > N = 3
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	type last struct {
		val string
	}
	state := map[string]last{}
	for step := 0; step < 400; step++ {
		// Advance the virtual clock between operations: last-write-wins
		// orders concurrent writes by timestamp, so writes from different
		// coordinators need distinct instants — exactly the wall-clock
		// assumption a production LWW deployment makes.
		h.advance(time.Millisecond)
		key := fmt.Sprintf("ryw-%02d", rng.Intn(30))
		writer := h.nodes[rng.Intn(len(h.nodes))]
		reader := h.nodes[rng.Intn(len(h.nodes))]
		switch rng.Intn(3) {
		case 0, 1:
			val := fmt.Sprintf("v-%d", step)
			if err := writer.Coordinator().Put(ctx, key, []byte(val)); err != nil {
				t.Fatalf("step %d: Put: %v", step, err)
			}
			state[key] = last{val: val}
		default:
			expect, written := state[key]
			got, err := reader.Coordinator().Get(ctx, key)
			if !written {
				if err == nil {
					t.Fatalf("step %d: read of never-written key succeeded: %q", step, got)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: Get(%s): %v", step, key, err)
			}
			if string(got) != expect.val {
				t.Fatalf("step %d: read-your-writes violated: got %q want %q", step, got, expect.val)
			}
		}
	}
}

// TestMonotonicReadsAfterRepair: once a read has returned a value, later
// reads through any coordinator must not return an older value for an
// unchanged key. This needs W + R > N: at R = 1 a read settles on the first
// answer and repairs the stale replicas asynchronously, so neither the first
// read seeing v2 nor the reads racing that repair are guaranteed (DESIGN.md
// §9).
func TestMonotonicReadsAfterRepair(t *testing.T) {
	h := newQuorumHarness(t, 5, 3, 2, 2)
	ctx := context.Background()
	key := "monotonic-key"
	if err := h.nodes[0].Coordinator().Put(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	h.converge(2)
	if err := h.nodes[1].Coordinator().Put(ctx, key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	h.converge(2)
	// First read resolves and repairs; all subsequent reads agree.
	first, err := h.nodes[2].Coordinator().Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != "v2" {
		t.Fatalf("first read = %q, want v2", first)
	}
	for i := 0; i < 20; i++ {
		got, err := h.nodes[rand.Intn(5)].Coordinator().Get(ctx, key)
		if err != nil || string(got) != "v2" {
			t.Fatalf("read %d regressed: %q, %v", i, got, err)
		}
	}
}
