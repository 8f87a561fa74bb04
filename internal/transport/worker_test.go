package transport

import (
	"sync"
	"testing"
	"time"
)

// waitUntil polls cond until it holds, failing the test after five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *workerPool) parkedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.parked)
}

// TestWorkerSequentialTasksReuseOneWorker: a task handed over while a worker
// is parked runs on that worker; no second one starts.
func TestWorkerSequentialTasksReuseOneWorker(t *testing.T) {
	p := &workerPool{idle: time.Minute}
	for i := 0; i < 100; i++ {
		done := make(chan struct{})
		p.run(func() { close(done) })
		<-done
		waitUntil(t, "the worker parks", func() bool { return p.parkedCount() == 1 })
	}
	if n := p.live.Load(); n != 1 {
		t.Fatalf("%d workers ran 100 sequential tasks, want 1", n)
	}
}

// TestWorkerBlockedTasksEachGetAWorker: tasks that block do not queue behind
// each other — n blocked tasks run on n workers, which all park afterwards.
func TestWorkerBlockedTasksEachGetAWorker(t *testing.T) {
	const n = 8
	p := &workerPool{idle: time.Minute}
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(n)
	for i := 0; i < n; i++ {
		p.run(func() {
			started.Done()
			<-release
		})
	}
	started.Wait()
	if got := p.live.Load(); got != n {
		t.Fatalf("%d workers for %d blocked tasks", got, n)
	}
	close(release)
	waitUntil(t, "every worker parks", func() bool { return p.parkedCount() == n })
	if got := p.live.Load(); got != n {
		t.Fatalf("%d workers after the tasks ended, want %d", got, n)
	}
}

// TestWorkerIdleWorkersExit: a parked worker that gets no task within the
// idle period exits, also while another keeps taking tasks.
func TestWorkerIdleWorkersExit(t *testing.T) {
	p := &workerPool{idle: 20 * time.Millisecond}
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(4)
	for i := 0; i < 4; i++ {
		p.run(func() {
			started.Done()
			<-release
		})
	}
	started.Wait()
	close(release)
	waitUntil(t, "every worker parks", func() bool { return p.parkedCount() == 4 })
	// The last worker to park takes the next task, so one worker keeps
	// serving sequential tasks while the other three idle out.
	waitUntil(t, "the unused workers exit", func() bool {
		done := make(chan struct{})
		p.run(func() { close(done) })
		<-done
		return p.live.Load() == 1
	})
	waitUntil(t, "the last worker exits", func() bool { return p.live.Load() == 0 })
	if got := p.parkedCount(); got != 0 {
		t.Fatalf("%d workers still parked after all exited", got)
	}
}
