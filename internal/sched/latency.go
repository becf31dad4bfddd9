package sched

import (
	"fmt"
	"sync/atomic"

	"avdb/internal/avtime"
)

// Latency models the processing delay of one activity or path stage: a
// fixed base plus uniformly distributed jitter in [0, Jitter].  Jitter
// stands for "unpredictable system latencies" that make "AV values tend
// to jitter and require regular resynchronization" (§3.3).  Sample n is
// the keyed draw Uniform(key, n, Jitter), the key a hash of the seed,
// so every experiment is reproducible and Sample needs no lock: a model
// shared by several activities hands out the same multiset of delays
// however their ticks interleave.
type Latency struct {
	base   avtime.WorldTime
	jitter avtime.WorldTime
	key    uint64
	draws  atomic.Uint64
}

// NewLatency returns a latency model.
func NewLatency(base, jitter avtime.WorldTime, seed int64) *Latency {
	if base < 0 || jitter < 0 {
		panic(fmt.Sprintf("sched: invalid latency base=%v jitter=%v", base, jitter))
	}
	return &Latency{base: base, jitter: jitter, key: Mix(0, uint64(seed))}
}

// Sample draws one delay.
func (l *Latency) Sample() avtime.WorldTime {
	if l.jitter == 0 {
		return l.base
	}
	return l.base + Uniform(l.key, l.draws.Add(1)-1, l.jitter)
}
