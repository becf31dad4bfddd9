package sched

import (
	"fmt"
	"sync"

	"avdb/internal/avtime"
)

// StallDetector watches one stream's scheduled-versus-actual presentation
// times — the same observations a Monitor accumulates — and detects
// sustained stalls: runs of consecutive deadline misses long enough that
// jitter cannot explain them.  A stall is the signal the degradation
// machinery acts on (a device retrying behind the stream, or a link whose
// bandwidth collapsed); isolated misses are left to the resynchronization
// controller.
//
// The detector is edge-triggered: OnStall fires once when the miss run
// first reaches the threshold, and OnRecover fires once when a deadline
// is met again.  Both callbacks run synchronously on the recording
// goroutine, which in the discrete-event model is the graph runner.
type StallDetector struct {
	mu        sync.Mutex
	mon       *Monitor
	threshold int
	run       int // current consecutive-miss run
	stalled   bool
	episodes  int
	onStall   func(at avtime.WorldTime)
	onRecover func(at avtime.WorldTime)
}

// NewStallDetector returns a detector that declares a stall after
// threshold consecutive presentations each later than tolerance.
func NewStallDetector(tolerance avtime.WorldTime, threshold int) *StallDetector {
	if threshold <= 0 {
		panic(fmt.Sprintf("sched: stall threshold must be positive, got %d", threshold))
	}
	return &StallDetector{mon: NewMonitor(tolerance), threshold: threshold}
}

// OnStall registers the stall callback.
func (d *StallDetector) OnStall(fn func(at avtime.WorldTime)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onStall = fn
}

// OnRecover registers the recovery callback.
func (d *StallDetector) OnRecover(fn func(at avtime.WorldTime)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onRecover = fn
}

// Record notes one presentation and fires the edge callbacks.
func (d *StallDetector) Record(scheduled, actual avtime.WorldTime) {
	d.mu.Lock()
	d.mon.Record(scheduled, actual)
	late := actual - scheduled
	if late < 0 {
		late = 0
	}
	var fire func(avtime.WorldTime)
	if late > d.mon.tolerance {
		d.run++
		if !d.stalled && d.run >= d.threshold {
			d.stalled = true
			d.episodes++
			fire = d.onStall
		}
	} else {
		d.run = 0
		if d.stalled {
			d.stalled = false
			fire = d.onRecover
		}
	}
	d.mu.Unlock()
	if fire != nil {
		fire(actual)
	}
}

// Episodes reports how many distinct stalls have been detected.
func (d *StallDetector) Episodes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.episodes
}
