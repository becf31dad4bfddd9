package sched

import (
	"math/rand"
	"testing"

	"avdb/internal/avtime"
)

// checkHorizonHeap asserts the heap order, the slot index and the
// minimum against the oracle's keys.
func checkHorizonHeap(t *testing.T, q *HorizonHeap, want map[int]avtime.WorldTime, where string) {
	t.Helper()
	if len(q.keys) != len(want) {
		t.Fatalf("%s: %d keys, oracle has %d", where, len(q.keys), len(want))
	}
	for i, k := range q.keys {
		if i > 0 && q.keys[(i-1)/2].at > k.at {
			t.Fatalf("%s: heap order broken at %d", where, i)
		}
		if int(q.pos[k.slot]) != i {
			t.Fatalf("%s: slot %d at %d, indexed at %d", where, k.slot, i, q.pos[k.slot])
		}
		if w, ok := want[int(k.slot)]; !ok || w != k.at {
			t.Fatalf("%s: slot %d keyed %v, oracle %v (present %v)", where, k.slot, k.at, w, ok)
		}
	}
	for slot, p := range q.pos {
		if _, ok := want[slot]; ok != (p >= 0) {
			t.Fatalf("%s: slot %d indexed at %d, in oracle %v", where, slot, p, ok)
		}
	}
	min, ok := q.Min()
	lmin, lok := avtime.WorldTime(0), false
	for _, at := range want {
		if !lok || at < lmin {
			lmin, lok = at, true
		}
	}
	if ok != lok || min != lmin {
		t.Fatalf("%s: Min = %v,%v, oracle %v,%v", where, min, ok, lmin, lok)
	}
}

// TestHorizonHeapMatchesScan drives random Set/Remove sequences —
// inserts, raises, lowers, removals of present and absent slots — and
// checks the heap against a scan of a map after every op.  Keys come
// from a small range so ties are common.
func TestHorizonHeapMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		var q HorizonHeap
		want := map[int]avtime.WorldTime{}
		for op := 0; op < 4000; op++ {
			slot := rng.Intn(40)
			if rng.Intn(3) == 0 {
				q.Remove(slot)
				delete(want, slot)
			} else {
				at := avtime.WorldTime(rng.Intn(12)) * avtime.Millisecond
				q.Set(slot, at)
				want[slot] = at
			}
			checkHorizonHeap(t, &q, want, "random ops")
		}
	}
}
