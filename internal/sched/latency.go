package sched

import (
	"fmt"
	"math/rand"
	"sync"

	"avdb/internal/avtime"
)

// Latency models the processing delay of one activity or path stage: a
// fixed base plus uniformly distributed jitter in [0, Jitter].  Jitter is
// drawn from a seeded PRNG — "because of unpredictable system latencies,
// AV values tend to jitter and require regular resynchronization" (§3.3)
// — and being seeded keeps every experiment reproducible.
type Latency struct {
	base   avtime.WorldTime
	jitter avtime.WorldTime

	mu  sync.Mutex
	rng *rand.Rand
}

// NewLatency returns a latency model.
func NewLatency(base, jitter avtime.WorldTime, seed int64) *Latency {
	if base < 0 || jitter < 0 {
		panic(fmt.Sprintf("sched: invalid latency base=%v jitter=%v", base, jitter))
	}
	return &Latency{base: base, jitter: jitter, rng: rand.New(rand.NewSource(seed))}
}

// Sample draws one delay.
func (l *Latency) Sample() avtime.WorldTime {
	if l.jitter == 0 {
		return l.base
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + avtime.WorldTime(l.rng.Int63n(int64(l.jitter)+1))
}
