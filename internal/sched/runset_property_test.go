package sched

import (
	"math/rand"
	"testing"

	"avdb/internal/avtime"
)

// runset_property_test.go is the companion to the linear-scan
// equivalence test: where TestRunSetHeapMatchesLinearScan checks the
// set's *answers*, these tests check its *structure* after every single
// operation — the bucket invariants that make Reschedule/Remove O(1) —
// and that DueBatch's reused result buffer never leaks state between
// calls.

// checkRunSetInvariants asserts what the bucket structure must preserve
// after any operation; the oracle supplies each run's recorded due time.
func checkRunSetInvariants(t *testing.T, q *RunSet, linear *linearRunSet, where string) {
	t.Helper()
	// The peek must leave a live bucket (or nothing) at the top.
	has := q.front() != nil
	if has != (q.Len() > 0) {
		t.Fatalf("%s: front ok=%v with %d runs", where, has, q.Len())
	}
	// Every slot is either free, listed once, or holds a live run.
	free := make(map[int32]bool, len(q.freeSlot))
	for _, slot := range q.freeSlot {
		if free[slot] || q.runs[slot].b != nil {
			t.Fatalf("%s: free slot %d listed twice or still placed", where, slot)
		}
		free[slot] = true
	}
	if len(q.heap) > 0 && q.heap[0].live == 0 {
		t.Fatalf("%s: empty bucket (due %v) at the heap top after front", where, q.heap[0].due)
	}
	if len(q.byDue) != len(q.heap) {
		t.Fatalf("%s: byDue has %d buckets, heap %d", where, len(q.byDue), len(q.heap))
	}
	inHeap := make(map[*dueBucket]bool, len(q.heap))
	live := 0
	for i, b := range q.heap {
		if i > 0 && q.heap[(i-1)/2].due >= b.due {
			t.Fatalf("%s: heap order broken at %d: parent due %v, child %v", where, i, q.heap[(i-1)/2].due, b.due)
		}
		if q.byDue[b.due] != b {
			t.Fatalf("%s: byDue[%v] is not the heap's bucket", where, b.due)
		}
		inHeap[b] = true
		n := 0
		for j, r := range b.runs {
			if r.b != b || r.i != j {
				if b.clean {
					t.Fatalf("%s: clean bucket %v holds a dead entry at %d", where, b.due, j)
				}
				continue
			}
			n++
			if b.clean && j > 0 && b.runs[j-1].id >= r.id {
				t.Fatalf("%s: clean bucket %v out of admission order at %d", where, b.due, j)
			}
		}
		if n != b.live {
			t.Fatalf("%s: bucket %v counts %d live, holds %d", where, b.due, b.live, n)
		}
		live += n
	}
	// Every run in exactly one bucket (live entries sum to the run count
	// and each slot is one of them), at its recorded due time.
	if live != q.Len() || q.Len() != len(linear.entries) {
		t.Fatalf("%s: %d live entries for %d runs, oracle has %d", where, live, q.Len(), len(linear.entries))
	}
	for _, e := range linear.entries {
		r := q.lookup(e.id)
		if r == nil || r != q.runs[e.id.Slot()] || !inHeap[r.b] || r.i >= len(r.b.runs) || r.b.runs[r.i] != r {
			t.Fatalf("%s: run %v's slot does not name a live entry", where, e.id)
		}
		if r.b.due != e.due {
			t.Fatalf("%s: run %v sits in bucket %v, recorded due %v", where, e.id, r.b.due, e.due)
		}
	}
}

// runBook is what RunSet and ShardedRunSet share once a run is admitted.
type runBook interface {
	Reschedule(RunID, avtime.WorldTime)
	Remove(RunID)
	DueBatch() (avtime.WorldTime, []RunID, bool)
	Len() int
}

// checkBatch compares the set's due batch with the oracle's.  DueBatch is
// called twice in a row: with the result buffer reused across calls the
// second answer must equal the first, so the test copies, as the
// documented contract requires.
func checkBatch(t *testing.T, set runBook, linear *linearRunSet, where string) {
	t.Helper()
	d, ids, ok := set.DueBatch()
	first := append([]RunID(nil), ids...)
	d2, ids2, ok2 := set.DueBatch()
	if ok != ok2 || d != d2 || len(first) != len(ids2) {
		t.Fatalf("%s: DueBatch not idempotent: (%v,%v,%v) then (%v,%v,%v)", where, d, first, ok, d2, ids2, ok2)
	}
	for i := range first {
		if first[i] != ids2[i] {
			t.Fatalf("%s: reused buffer corrupted batch: %v vs %v", where, first, ids2)
		}
	}
	ld, lids, lok := linear.DueBatch()
	if ok != lok || d != ld || len(first) != len(lids) {
		t.Fatalf("%s: batch (%v,%v,%v) != linear (%v,%v,%v)", where, d, first, ok, ld, lids, lok)
	}
	for i := range first {
		if first[i] != lids[i] {
			t.Fatalf("%s: batch order diverged: %v vs %v", where, first, lids)
		}
	}
	if set.Len() != len(linear.entries) {
		t.Fatalf("%s: Len %d != %d", where, set.Len(), len(linear.entries))
	}
}

// coDuePrograms are the engine-shaped op programs: many runs admitted
// co-due and stepped batch by batch.  step gets the batch (a copy) and
// the time one period on, and applies the same ops to both books.
var coDuePrograms = []struct {
	name string
	step func(set runBook, linear *linearRunSet, batch []RunID, next avtime.WorldTime)
}{
	{"engine-step", func(set runBook, linear *linearRunSet, batch []RunID, next avtime.WorldTime) {
		for _, id := range batch {
			set.Reschedule(id, next)
			linear.Reschedule(id, next)
		}
	}},
	{"one-retires-per-step", func(set runBook, linear *linearRunSet, batch []RunID, next avtime.WorldTime) {
		gone := batch[len(batch)/3]
		for _, id := range batch {
			if id == gone {
				continue
			}
			set.Reschedule(id, next)
			linear.Reschedule(id, next)
		}
		// Retired after the others moved on, as the engine's phase 3 does.
		set.Remove(gone)
		linear.Remove(gone)
	}},
	{"reverse-admission-order", func(set runBook, linear *linearRunSet, batch []RunID, next avtime.WorldTime) {
		for i := len(batch) - 1; i >= 0; i-- {
			set.Reschedule(batch[i], next)
			linear.Reschedule(batch[i], next)
		}
	}},
}

// runCoDuePrograms admits 1000 runs due at once and steps each program
// 12 periods, checking batch and structure after every step.
func runCoDuePrograms(t *testing.T, fresh func() (set runBook, admit func(avtime.WorldTime) RunID, inner *RunSet)) {
	const runs, steps = 1000, 12
	period := avtime.RateVideo30.UnitDuration()
	for _, prog := range coDuePrograms {
		t.Run(prog.name, func(t *testing.T) {
			set, admit, inner := fresh()
			var linear linearRunSet
			for i := 0; i < runs; i++ {
				if id := admit(0); !linear.Admit(id, 0) {
					t.Fatalf("Admit id %v does not follow the last", id)
				}
			}
			for step := 0; step < steps; step++ {
				checkBatch(t, set, &linear, prog.name)
				due, ids, ok := set.DueBatch()
				if !ok {
					t.Fatalf("step %d: set ran dry", step)
				}
				prog.step(set, &linear, append([]RunID(nil), ids...), due+period)
				checkRunSetInvariants(t, inner, &linear, prog.name)
			}
			checkBatch(t, set, &linear, prog.name)
		})
	}
}

// TestRunSetPropertyOps drives randomized Admit/Reschedule/Remove/
// DueBatch sequences against the linear-scan reference, checking the
// structural invariants and the batch answer after every op, then the
// co-due programs.
func TestRunSetPropertyOps(t *testing.T) {
	for _, seed := range []int64{3, 11, 29, 71, 2026} {
		rng := rand.New(rand.NewSource(seed))
		var set RunSet
		var linear linearRunSet
		var live []RunID

		due := func() avtime.WorldTime {
			return avtime.WorldTime(rng.Intn(6)) * 10 * avtime.Millisecond
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(live) == 0: // admit
				d := due()
				hid := set.Admit(d)
				if !linear.Admit(hid, d) {
					t.Fatalf("seed %d step %d: Admit id %v does not follow the last", seed, step, hid)
				}
				live = append(live, hid)
			case op < 6: // reschedule a random live run
				id := live[rng.Intn(len(live))]
				d := due()
				set.Reschedule(id, d)
				linear.Reschedule(id, d)
			case op < 8: // remove a random live run
				i := rng.Intn(len(live))
				id := live[i]
				set.Remove(id)
				linear.Remove(id)
				live = append(live[:i], live[i+1:]...)
			default: // the engine's step: pop the batch, reschedule each member
				_, ids, ok := set.DueBatch()
				if ok {
					// The batch buffer is owned by the set; Reschedule never
					// touches it, so iterating while rescheduling is the
					// engine's documented usage.
					for _, id := range ids {
						d := due()
						set.Reschedule(id, d)
						linear.Reschedule(id, d)
					}
				}
			}
			where := "random ops"
			checkRunSetInvariants(t, &set, &linear, where)
			checkBatch(t, &set, &linear, where)
			if t.Failed() {
				t.Fatalf("seed %d step %d", seed, step)
			}
		}
	}
	runCoDuePrograms(t, func() (runBook, func(avtime.WorldTime) RunID, *RunSet) {
		set := new(RunSet)
		return set, set.Admit, set
	})
}

// TestShardedRunSetPropertyOps runs the co-due programs over 16 shards
// with round-robin admission, the engine's default keying.
func TestShardedRunSetPropertyOps(t *testing.T) {
	runCoDuePrograms(t, func() (runBook, func(avtime.WorldTime) RunID, *RunSet) {
		set := NewShardedRunSet(16)
		rr := 0
		admit := func(d avtime.WorldTime) RunID { rr++; return set.Admit(d, rr) }
		return set, admit, &set.set
	})
}

// TestRunSetBouncingRunsStayBounded moves runs back and forth between
// two buckets the front never reaches: the dead entries the moves leave
// behind must be compacted away, not accumulate.
func TestRunSetBouncingRunsStayBounded(t *testing.T) {
	var set RunSet
	var linear linearRunSet
	linear.Admit(set.Admit(0), 0) // the front, never touched
	var ids []RunID
	for i := 0; i < 10; i++ {
		ids = append(ids, set.Admit(avtime.Second))
		linear.Admit(ids[i], avtime.Second)
	}
	for round := 0; round < 1000; round++ {
		d := avtime.Second
		if round%2 == 0 {
			d = 2 * avtime.Second
		}
		for _, id := range ids {
			set.Reschedule(id, d)
			linear.Reschedule(id, d)
		}
	}
	checkRunSetInvariants(t, &set, &linear, "bouncing")
	checkBatch(t, &set, &linear, "bouncing")
	for _, b := range set.heap {
		if len(b.runs) > 2*len(ids)+8 {
			t.Errorf("bucket %v holds %d entries for %d runs", b.due, len(b.runs), len(ids))
		}
	}
}
