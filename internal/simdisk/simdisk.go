// Package simdisk models the storage hardware under the evaluation's three
// systems. The paper's testbed gives every server two 146 GB SAS disks; the
// reproduction replaces them with a service-time model so that the three
// compared systems run against identical simulated hardware and the
// benchmark shapes come from architecture (cache tier, partitioning,
// replication protocol), not from incidental host-machine effects.
//
// A Disk services one request at a time per spindle; a request costs a
// fixed positioning overhead plus size/bandwidth transfer time. Callers
// charge the disk synchronously, so queueing under load emerges naturally.
package simdisk

import (
	"sync"
	"time"
)

// Params describe one disk.
type Params struct {
	// Seek is the per-request positioning cost. Default 100µs, between a
	// raw SAS seek and an array with write-back cache.
	Seek time.Duration
	// BytesPerSec is the sequential transfer rate. Default 100 MB/s.
	BytesPerSec float64
	// Spindles is how many requests proceed concurrently (the testbed has
	// two disks per node). Default 2.
	Spindles int
}

func (p Params) withDefaults() Params {
	if p.Seek <= 0 {
		p.Seek = 100 * time.Microsecond
	}
	if p.BytesPerSec <= 0 {
		p.BytesPerSec = 100e6
	}
	if p.Spindles <= 0 {
		p.Spindles = 2
	}
	return p
}

// Disk is one node's storage. It is safe for concurrent use; concurrent
// requests beyond the spindle count queue.
type Disk struct {
	params Params
	slots  chan struct{}

	mu        sync.Mutex
	requests  int64
	busyTotal time.Duration
}

// New builds a disk.
func New(params Params) *Disk {
	params = params.withDefaults()
	d := &Disk{params: params, slots: make(chan struct{}, params.Spindles)}
	for i := 0; i < params.Spindles; i++ {
		d.slots <- struct{}{}
	}
	return d
}

// ServiceTime returns the cost of one request of the given size, excluding
// queueing.
func (d *Disk) ServiceTime(bytes int) time.Duration {
	return d.params.Seek + time.Duration(float64(bytes)/d.params.BytesPerSec*float64(time.Second))
}

// Access charges one request: it waits for a spindle, holds it for the
// service time, and returns. Both reads and writes use the same model.
func (d *Disk) Access(bytes int) {
	<-d.slots
	st := d.ServiceTime(bytes)
	time.Sleep(st)
	d.slots <- struct{}{}
	d.mu.Lock()
	d.requests++
	d.busyTotal += st
	d.mu.Unlock()
}
