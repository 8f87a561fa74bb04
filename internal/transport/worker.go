package transport

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// workerIdle is how long a parked worker waits for a task before it exits.
const workerIdle = 10 * time.Second

// workerPool hands each task to a parked worker when one is waiting and
// starts a new worker otherwise, so no task waits for a worker and the pool
// has no size. A reused worker keeps the stack its earlier tasks grew. The
// most recently parked worker goes first, so under light load the others
// sit idle and exit.
type workerPool struct {
	idle   time.Duration
	mu     sync.Mutex
	parked []chan func() // each parked worker's hand-off, buffered 1
	live   atomic.Int64
}

var workers = &workerPool{idle: workerIdle}

// Go runs f on its own goroutine, as the go statement does, on a parked
// worker when there is one. Request paths use it for work started once per
// request.
func Go(f func()) { workers.run(f) }

func (p *workerPool) run(f func()) {
	p.mu.Lock()
	if n := len(p.parked); n > 0 {
		ch := p.parked[n-1]
		p.parked = p.parked[:n-1]
		p.mu.Unlock()
		ch <- f
		return
	}
	p.mu.Unlock()
	p.live.Add(1)
	go p.worker(f)
}

func (p *workerPool) worker(f func()) {
	defer p.live.Add(-1)
	next := make(chan func(), 1)
	idle := time.NewTimer(p.idle)
	defer idle.Stop()
	for {
		f()
		f = nil // let the task's captures go while parked
		// A fire that raced the last task leaves a stale tick: the worker
		// then exits a period early, which costs one later start.
		idle.Reset(p.idle)
		p.mu.Lock()
		p.parked = append(p.parked, next)
		p.mu.Unlock()
		select {
		case f = <-next:
		case <-idle.C:
			p.mu.Lock()
			i := slices.Index(p.parked, next)
			if i >= 0 {
				p.parked = slices.Delete(p.parked, i, i+1)
			}
			p.mu.Unlock()
			if i >= 0 {
				return
			}
			f = <-next // run took this worker as the timer fired
		}
	}
}
