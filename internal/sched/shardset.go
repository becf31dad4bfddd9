package sched

import (
	"avdb/internal/avtime"
)

// ShardedRunSet is a run set whose callers name a shard for each run;
// the engine no longer shards, and the set stays for the benchmark
// module's probes, which still call it.  The book is one RunSet: a due
// batch comes out in global admission order whatever shards its members
// were admitted to, so the observable batch stream is that of a single
// RunSet fed the same operations, which TestShardedRunSetMatchesLinear
// pins against the retained linear reference.  Nothing reads a run's
// shard back, so the set keeps neither the shard count nor the labels.
//
// Like RunSet, a ShardedRunSet is not goroutine-safe; callers serialize
// access.
type ShardedRunSet struct {
	set RunSet
}

// NewShardedRunSet returns a set for the given number of shards.
func NewShardedRunSet(shards int) *ShardedRunSet { return &ShardedRunSet{} }

// Admit adds a run due at the given time, for the given shard, and
// returns its globally ordered id.
func (s *ShardedRunSet) Admit(due avtime.WorldTime, shard int) RunID { return s.set.Admit(due) }

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
