package sched

import (
	"math/rand"
	"testing"

	"avdb/internal/avtime"
)

// shardset_test.go pins the sharded admission book to the same
// executable specification RunSet is pinned to: a ShardedRunSet with
// any shard count, fed any randomized Admit/Reschedule/Remove/step
// sequence, must produce exactly the due batches of the single
// linearRunSet — same times, same ids, same global admission order —
// no matter how admissions are spread across shards.

// TestShardedRunSetMatchesLinear drives sharded sets of several widths
// against the linear reference.  Shard choice per admit is random —
// harsher than the engine's round-robin/stripe keying, since it also
// exercises lopsided and empty shards — and the k-way merge sees
// perfectly interleaved ids whenever admissions round-robin.
func TestShardedRunSetMatchesLinear(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 16} {
		for _, seed := range []int64{5, 23, 97, 2026} {
			rng := rand.New(rand.NewSource(seed))
			sharded := NewShardedRunSet(shards)
			var linear linearRunSet
			var live []RunID

			due := func() avtime.WorldTime {
				return avtime.WorldTime(rng.Intn(6)) * 10 * avtime.Millisecond
			}
			check := func(step int) {
				checkRunSetInvariants(t, &sharded.set, &linear, "random ops")
				sd, sids, sok := sharded.DueBatch()
				// Copy before the idempotence recheck: the buffer is reused.
				first := append([]RunID(nil), sids...)
				sd2, sids2, sok2 := sharded.DueBatch()
				if sok != sok2 || sd != sd2 || len(first) != len(sids2) {
					t.Fatalf("shards %d seed %d step %d: DueBatch not idempotent", shards, seed, step)
				}
				for i := range first {
					if first[i] != sids2[i] {
						t.Fatalf("shards %d seed %d step %d: reused buffer corrupted batch: %v vs %v",
							shards, seed, step, first, sids2)
					}
				}
				ld, lids, lok := linear.DueBatch()
				if sok != lok || sd != ld || len(first) != len(lids) {
					t.Fatalf("shards %d seed %d step %d: sharded batch (%v,%v,%v) != linear (%v,%v,%v)",
						shards, seed, step, sd, first, sok, ld, lids, lok)
				}
				for i := range first {
					if first[i] != lids[i] {
						t.Fatalf("shards %d seed %d step %d: batch order diverged: %v vs %v",
							shards, seed, step, first, lids)
					}
				}
				if sharded.Len() != len(linear.entries) {
					t.Fatalf("shards %d seed %d step %d: Len %d != %d",
						shards, seed, step, sharded.Len(), len(linear.entries))
				}
			}

			for step := 0; step < 2500; step++ {
				switch op := rng.Intn(10); {
				case op < 4 || len(live) == 0: // admit into a random shard
					d := due()
					sid := sharded.Admit(d, rng.Intn(shards))
					lid := linear.Admit(d)
					if sid != lid {
						t.Fatalf("shards %d seed %d step %d: Admit ids diverge: %v != %v",
							shards, seed, step, sid, lid)
					}
					live = append(live, sid)
				case op < 6: // reschedule a random live run
					id := live[rng.Intn(len(live))]
					d := due()
					sharded.Reschedule(id, d)
					linear.Reschedule(id, d)
				case op < 8: // remove a random live run
					i := rng.Intn(len(live))
					id := live[i]
					sharded.Remove(id)
					linear.Remove(id)
					if sharded.set.runs[id] != nil {
						t.Fatalf("shards %d seed %d step %d: run %v still held after Remove",
							shards, seed, step, id)
					}
					live = append(live[:i], live[i+1:]...)
				default: // the engine's step: pop the batch, reschedule each member
					_, ids, ok := sharded.DueBatch()
					if ok {
						for _, id := range ids {
							d := due()
							sharded.Reschedule(id, d)
							linear.Reschedule(id, d)
						}
					}
				}
				check(step)
			}
		}
	}
}

// TestShardedRunSetEdges covers the corners the randomized drive can
// miss: empty set, negative/overflowing shard indexes, unknown ids.
func TestShardedRunSetEdges(t *testing.T) {
	s := NewShardedRunSet(0)
	if _, _, ok := s.DueBatch(); ok {
		t.Fatal("DueBatch on empty set reported ok")
	}
	s.Reschedule(99, avtime.Millisecond) // unknown id: no-op
	s.Remove(99)                         // unknown id: no-op

	s = NewShardedRunSet(4)
	a := s.Admit(10*avtime.Millisecond, -1) // any shard label is accepted
	b := s.Admit(10*avtime.Millisecond, 7)
	due, ids, ok := s.DueBatch()
	if !ok || due != 10*avtime.Millisecond || len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Fatalf("DueBatch = %v,%v,%v", due, ids, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

// TestRunSetMinDue pins the peek DueBatch starts from: the earliest
// live bucket is at the front.
func TestRunSetMinDue(t *testing.T) {
	var s RunSet
	if s.front() != nil {
		t.Fatal("front of an empty set is a bucket")
	}
	s.Admit(30 * avtime.Millisecond)
	id := s.Admit(10 * avtime.Millisecond)
	if b := s.front(); b == nil || b.due != 10*avtime.Millisecond {
		t.Fatalf("front = %v, want the 10ms bucket", b)
	}
	s.Remove(id)
	if b := s.front(); b == nil || b.due != 30*avtime.Millisecond {
		t.Fatalf("front = %v, want the 30ms bucket", b)
	}
}
