package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"avdb/internal/avtime"
)

// linearRunSet is the original O(n)-per-step admission book: a slice in
// admission order, min-next-due found by scanning.  It is kept here as
// the executable specification RunSet and ShardedRunSet must match batch
// for batch.  It takes its ids from the set under test, whose slot bits
// are the set's business; the oracle only requires them to rise.
type linearRunSet struct {
	last    RunID
	entries []runSetEntry
}

type runSetEntry struct {
	id  RunID
	due avtime.WorldTime
}

// Admit records the run the set under test admitted as id, and reports
// whether id orders after every id before it, as admission order needs.
func (s *linearRunSet) Admit(id RunID, due avtime.WorldTime) bool {
	rises := id > s.last
	s.last = id
	s.entries = append(s.entries, runSetEntry{id: id, due: due})
	return rises
}

func (s *linearRunSet) Reschedule(id RunID, due avtime.WorldTime) {
	for i := range s.entries {
		if s.entries[i].id == id {
			s.entries[i].due = due
			return
		}
	}
}

func (s *linearRunSet) Remove(id RunID) {
	for i := range s.entries {
		if s.entries[i].id == id {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			return
		}
	}
}

func (s *linearRunSet) DueBatch() (due avtime.WorldTime, ids []RunID, ok bool) {
	if len(s.entries) == 0 {
		return 0, nil, false
	}
	due = s.entries[0].due
	for _, e := range s.entries[1:] {
		if e.due < due {
			due = e.due
		}
	}
	for _, e := range s.entries {
		if e.due == due {
			ids = append(ids, e.id)
		}
	}
	return due, ids, true
}

// TestRunSetHeapMatchesLinearScan (named when the set was a per-run
// binary heap) drives the set and the linear specification through the
// same randomized admission history —
// admits, reschedules, removes, and the engine's pop-batch step — and
// requires identical due times and identical batch order at every
// step.  Due times are drawn from a tiny range so multi-run ties (the
// interesting case for admission-order tie-breaking) are common.
func TestRunSetHeapMatchesLinearScan(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1993} {
		rng := rand.New(rand.NewSource(seed))
		var set RunSet
		var linear linearRunSet
		var live []RunID

		check := func(step int) {
			hd, hids, hok := set.DueBatch()
			ld, lids, lok := linear.DueBatch()
			if hok != lok || hd != ld || !reflect.DeepEqual(hids, lids) {
				t.Fatalf("seed %d step %d: batch (%v,%v,%v) != linear (%v,%v,%v)",
					seed, step, hd, hids, hok, ld, lids, lok)
			}
			if set.Len() != len(linear.entries) {
				t.Fatalf("seed %d step %d: Len %d != %d", seed, step, set.Len(), len(linear.entries))
			}
		}

		due := func() avtime.WorldTime {
			return avtime.WorldTime(rng.Intn(8)) * 10 * avtime.Millisecond
		}
		for step := 0; step < 2000; step++ {
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
			case op < 7: // remove a random live run
				i := rng.Intn(len(live))
				id := live[i]
				set.Remove(id)
				linear.Remove(id)
				live = append(live[:i], live[i+1:]...)
			default: // the engine's step: pop the due batch, reschedule each
				_, ids, ok := set.DueBatch()
				if ok {
					for _, id := range ids {
						d := due()
						set.Reschedule(id, d)
						linear.Reschedule(id, d)
					}
				}
			}
			check(step)
		}
	}
}
