package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// sample is one completed request as the load generator saw it.
type sample struct {
	kind opKind
	ok   bool
	end  time.Duration // completion, since the drive began
	lat  time.Duration // closed loop: send -> response; open loop: due -> response
	svc  time.Duration // send -> response
	lag  time.Duration // open loop: how late the request was sent
}

type driveResult struct {
	samples []sample
	elapsed time.Duration // begin -> last completion
	backlog int           // open loop: arrivals due in the window that were never sent
}

// doFunc sends one request on connection c and reports whether it succeeded
// and passed its checks. r is the caller's generator, for redraws.
type doFunc func(c int, o op, r *rand.Rand) bool

// driveClosed runs one closed loop per client: each sends its next request
// only after the previous one completes, so a slow server receives less
// load.
func driveClosed(clients int, seed int64, d time.Duration, gen func(*rand.Rand) op, do doFunc) driveResult {
	begin := time.Now()
	until := begin.Add(d)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*1000003 + int64(c)))
			for {
				sent := time.Now()
				if !sent.Before(until) {
					return
				}
				o := gen(r)
				ok := do(c, o, r)
				done := time.Now()
				per[c] = append(per[c], sample{
					kind: o.kind, ok: ok, end: done.Sub(begin),
					lat: done.Sub(sent), svc: done.Sub(sent),
				})
			}
		}(c)
	}
	wg.Wait()
	return driveResult{samples: mergeSamples(per), elapsed: time.Since(begin)}
}

// arrivals is an open loop's schedule: seeded exponential gaps at a fixed
// rate, handed out in order to whichever connection is free.
type arrivals struct {
	mu   sync.Mutex
	r    *rand.Rand
	next time.Time
	rate float64
	gen  func(*rand.Rand) op
}

func (a *arrivals) take() (time.Time, op) {
	a.mu.Lock()
	defer a.mu.Unlock()
	due := a.next
	a.next = due.Add(time.Duration(a.r.ExpFloat64() / a.rate * float64(time.Second)))
	return due, a.gen(a.r)
}

// openDrain is how long past the window an open loop keeps sending what was
// due inside it. It bounds the overrun when the server cannot keep up.
const openDrain = time.Second

// driveOpen sends requests on a schedule whatever the server does: latency
// runs from the instant a request was due, so a stall charges every request
// that queued behind it. Arrivals due in the window and still unsent
// openDrain after it are the backlog. At most conns requests are in flight.
func driveOpen(conns int, seed int64, d time.Duration, rate float64, gen func(*rand.Rand) op, do doFunc) driveResult {
	begin := time.Now()
	until := begin.Add(d)
	sched := &arrivals{r: rand.New(rand.NewSource(seed)), next: begin, rate: rate, gen: gen}
	per := make([][]sample, conns)
	backlog := make([]int, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*1000003 + int64(c)))
			for {
				due, o := sched.take()
				if !due.Before(until) {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if sent.Sub(until) >= openDrain {
					backlog[c]++
					continue
				}
				ok := do(c, o, r)
				done := time.Now()
				per[c] = append(per[c], sample{
					kind: o.kind, ok: ok, end: done.Sub(begin),
					lat: done.Sub(due), svc: done.Sub(sent), lag: sent.Sub(due),
				})
			}
		}(c)
	}
	wg.Wait()
	res := driveResult{samples: mergeSamples(per), elapsed: time.Since(begin)}
	for _, b := range backlog {
		res.backlog += b
	}
	return res
}

func mergeSamples(per [][]sample) []sample {
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// quantile returns the nearest-rank q-quantile of durations, in
// milliseconds; 0 for an empty set.
func quantile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / float64(time.Millisecond)
}

// tailSampleFloor is the sample count below which a p99 is the 10th-worst
// sample or worse and p95 is reported in its place.
const tailSampleFloor = 1000

// latencies picks the successful samples of one kind.
func latencies(samples []sample, kind opKind, pick func(sample) time.Duration) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.ok && s.kind == kind {
			out = append(out, pick(s))
		}
	}
	return out
}

// tail returns the p99 of d, or its p95 (and true) below the sample floor.
func tail(d []time.Duration) (ms float64, isP95 bool) {
	if len(d) < tailSampleFloor {
		return quantile(d, 0.95), true
	}
	return quantile(d, 0.99), false
}
