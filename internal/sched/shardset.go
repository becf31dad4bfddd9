package sched

import (
	"avdb/internal/avtime"
)

// ShardedRunSet is a RunSet whose runs each carry a shard label, chosen
// at admit and never changed, so a parallel engine can hand each
// shard's slice of the due batch to a different worker.  The book
// itself is one RunSet: a due batch comes out in global admission
// order whatever shards its members belong to, and shards whose runs
// are co-due share a bucket instead of each keeping their own — so the
// observable batch stream is that of a single RunSet fed the same
// operations, which TestShardedRunSetMatchesLinear pins against the
// retained linear reference.
//
// Like RunSet, a ShardedRunSet is not goroutine-safe; the engine
// serializes access under its own lock and only the *ticking* of the
// batch happens in parallel.
type ShardedRunSet struct {
	set    RunSet
	shards int
}

// NewShardedRunSet returns a set split over n shards (n < 1 is treated
// as 1).
func NewShardedRunSet(n int) *ShardedRunSet {
	if n < 1 {
		n = 1
	}
	return &ShardedRunSet{shards: n}
}

// Shards returns the shard count.
func (s *ShardedRunSet) Shards() int { return s.shards }

// Admit adds a run due at the given time to the given shard (taken
// modulo the shard count) and returns its globally ordered id.
func (s *ShardedRunSet) Admit(due avtime.WorldTime, shard int) RunID {
	shard %= s.shards
	if shard < 0 {
		shard += s.shards
	}
	r := s.set.admit(due)
	r.shard = shard
	return r.id
}

// Shard reports which shard a run was admitted to.
func (s *ShardedRunSet) Shard(id RunID) (int, bool) {
	r := s.set.runs[id]
	if r == nil {
		return 0, false
	}
	return r.shard, true
}

// Reschedule updates a run's next due time.  Unknown ids are ignored.
func (s *ShardedRunSet) Reschedule(id RunID, due avtime.WorldTime) { s.set.Reschedule(id, due) }

// Remove deletes a run from the set.
func (s *ShardedRunSet) Remove(id RunID) { s.set.Remove(id) }

// Len returns the number of admitted runs across all shards.
func (s *ShardedRunSet) Len() int { return s.set.Len() }

// DueBatch returns the earliest due time across every shard and the ids
// of every run due at exactly that time, in global admission order.
// The returned slice is a buffer owned by the set, valid until the next
// DueBatch call, with the same reuse contract as RunSet.DueBatch.
func (s *ShardedRunSet) DueBatch() (due avtime.WorldTime, ids []RunID, ok bool) {
	return s.set.DueBatch()
}
