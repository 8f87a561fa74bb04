// Package faults implements the failure-injection framework used by the
// evaluation (paper §6.2, Table 2). Each fault type fires independently per
// operation with a configured probability, using a seeded deterministic
// generator so experiments are reproducible:
//
//	type 1  short failure  network exception    p = 0.1
//	type 2  short failure  disk IO error        p = 0.002
//	type 3  short failure  blocking processing  p = 0.002
//	type 4  long failure   node breakdown       p = 0.001
//
// Short failures affect a single operation (the message is lost, the disk
// write errors, the process stalls); a long failure takes the whole node
// down until something external recovers it.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Kind enumerates the paper's fault classes.
type Kind int

// Fault kinds, numbered as in Table 2.
const (
	NetworkException Kind = iota + 1
	DiskIOError
	BlockingProcess
	NodeBreakdown
)

// String names the fault kind as the paper's table does.
func (k Kind) String() string {
	switch k {
	case NetworkException:
		return "network exception"
	case DiskIOError:
		return "disk IO error"
	case BlockingProcess:
		return "blocking processing"
	case NodeBreakdown:
		return "node breakdown"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Errors injected by the framework. Injection sites wrap these so callers
// can classify with errors.Is.
var (
	ErrNetwork  = errors.New("faults: injected network exception")
	ErrDiskIO   = errors.New("faults: injected disk IO error")
	ErrBlocking = errors.New("faults: injected blocking processing")
	ErrNodeDown = errors.New("faults: node is broken down")
)

// Err maps a kind to its sentinel error.
func (k Kind) Err() error {
	switch k {
	case NetworkException:
		return ErrNetwork
	case DiskIOError:
		return ErrDiskIO
	case BlockingProcess:
		return ErrBlocking
	case NodeBreakdown:
		return ErrNodeDown
	default:
		return fmt.Errorf("faults: injected fault %d", int(k))
	}
}

// Plan is a probability table: the chance each operation triggers each
// fault kind.
type Plan map[Kind]float64

// PaperTable2 returns the probabilities from the paper's Table 2.
func PaperTable2() Plan {
	return Plan{
		NetworkException: 0.1,
		DiskIOError:      0.002,
		BlockingProcess:  0.002,
		NodeBreakdown:    0.001,
	}
}

// Injector rolls the plan's dice per operation and tracks which nodes are
// broken down. It is safe for concurrent use.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	plan   Plan
	order  []Kind // deterministic roll order
	down   map[string]bool
	counts map[Kind]int64
	// BlockDelay is how long a blocking-process fault stalls the operation
	// before it proceeds (the paper's "server process being blocked").
	BlockDelay time.Duration
	// NetworkDelay is how long a network exception takes to surface: a
	// failed connection costs its timeout (the paper's connecttimeoutms),
	// it does not fail for free. Applied before the error returns.
	NetworkDelay time.Duration
	// MaxDown caps how many nodes may be broken down at once. The paper's
	// fault run keeps the cluster alive for its whole experiment, which a
	// raw per-operation breakdown probability would not; with the default
	// 1, a breakdown cannot fire while another node is already down.
	MaxDown int
}

// NewInjector returns an injector rolling with the given seed.
func NewInjector(plan Plan, seed int64) *Injector {
	return &Injector{
		rng:          rand.New(rand.NewSource(seed)),
		plan:         plan,
		order:        []Kind{NetworkException, DiskIOError, BlockingProcess, NodeBreakdown},
		down:         make(map[string]bool),
		counts:       make(map[Kind]int64),
		BlockDelay:   20 * time.Millisecond,
		NetworkDelay: 10 * time.Millisecond,
		MaxDown:      1,
	}
}

// Roll decides the fate of one operation on the given node. It returns
// (0, nil) when the operation proceeds normally. A BlockingProcess fault
// stalls for BlockDelay, then lets the operation proceed, returning the
// kind so callers can account for it. A NodeBreakdown marks the node down
// permanently (until Recover) and returns ErrNodeDown; subsequent rolls on
// that node fail immediately.
func (in *Injector) Roll(node string) (Kind, error) {
	in.mu.Lock()
	if in.down[node] {
		in.mu.Unlock()
		return NodeBreakdown, fmt.Errorf("%w: %s", ErrNodeDown, node)
	}
	var fired Kind
	for _, k := range in.order {
		p := in.plan[k]
		if p > 0 && in.rng.Float64() < p {
			fired = k
			break
		}
	}
	if fired == NodeBreakdown {
		if in.MaxDown > 0 && len(in.down) >= in.MaxDown {
			fired = 0 // breakdown budget exhausted; the op proceeds
		} else {
			in.down[node] = true
		}
	}
	if fired != 0 {
		in.counts[fired]++
	}
	blockDelay, netDelay := in.BlockDelay, in.NetworkDelay
	in.mu.Unlock()

	switch fired {
	case 0:
		return 0, nil
	case BlockingProcess:
		time.Sleep(blockDelay)
		return BlockingProcess, nil
	case NetworkException:
		time.Sleep(netDelay)
		return fired, fmt.Errorf("%w (%s)", fired.Err(), node)
	default:
		return fired, fmt.Errorf("%w (%s)", fired.Err(), node)
	}
}

// IsDown reports whether node is broken down.
func (in *Injector) IsDown(node string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.down[node]
}

// Down lists broken-down nodes.
func (in *Injector) Down() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.down))
	for n, d := range in.down {
		if d {
			out = append(out, n)
		}
	}
	return out
}

// Recover clears a node's breakdown.
func (in *Injector) Recover(node string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.down, node)
}

// Counts returns how many times each kind has fired.
func (in *Injector) Counts() map[Kind]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}
