// Package sched provides the stream-scheduling substrate of the AV
// database: a virtual presentation clock, admission control over shared
// resources (buffers, CPU, bus bandwidth), per-activity latency models
// with bounded seeded jitter, deadline monitoring, and the
// resynchronization controller that keeps the tracks of a composite
// stream temporally correlated (§3.3 "scheduling").
//
// All rate-governed behavior in the system runs against a VirtualClock,
// making hour-long presentations execute in microseconds and
// deterministically.
package sched

import (
	"sync"

	"avdb/internal/avtime"
)

// VirtualClock is a manually advanced clock for discrete-event execution.
// The zero value reads time zero and is ready to use.
type VirtualClock struct {
	mu  sync.Mutex
	now avtime.WorldTime
}

// NewVirtualClock returns a virtual clock reading start.
func NewVirtualClock(start avtime.WorldTime) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() avtime.WorldTime {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AdvanceTo moves the clock to w if w is later than now; earlier times
// are ignored (several streams may report progress out of order).
func (c *VirtualClock) AdvanceTo(w avtime.WorldTime) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w > c.now {
		c.now = w
	}
}
