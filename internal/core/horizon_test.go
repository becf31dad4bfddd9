package core

import (
	"fmt"
	"math/rand"
	"testing"

	"avdb/internal/activity"
	"avdb/internal/avtime"
)

// fullHorizon is the walk stepOnce once made over every admitted run to
// find the clock's commit point: the minimum commit horizon across the
// runs whose ticks have not failed.  It is kept as the oracle the
// engine's horizon heap must match, in the linearRunSet pattern.
func fullHorizon(runs []engineRun) (horizon avtime.WorldTime, ok bool) {
	for _, r := range runs {
		if r.Err() != nil {
			continue
		}
		if h := r.CommitHorizon(); !ok || h < horizon {
			horizon, ok = h, true
		}
	}
	return horizon, ok
}

// TestEngineHorizonMatchesFullScan drives the engine over scripted fake
// runs through random sequences of admissions (at random start times and
// rates, from outside and from inside a tick, and between a Pause and a
// Resume), steps, tick failures and retirements.  After every step the
// committed clock must be exactly where the full scan over the runs that
// were live at the commit puts it, and the heap's top must equal the
// full scan over the runs still admitted.
func TestEngineHorizonMatchesFullScan(t *testing.T) {
	units := []avtime.WorldTime{
		avtime.RateVideo30.UnitDuration(), 20 * avtime.Millisecond,
		25 * avtime.Millisecond, 40 * avtime.Millisecond,
	}
	for _, seed := range []int64{1, 7, 42, 1993} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := testDB(t)
			e := admitFakeRuns(t, db, 0, 1)
			s, err := db.Connect("horizon-harness", "lan0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			g := activity.NewGraph("prop")
			var all []*fakeRun
			admit := func() {
				start := db.clock.Now() + avtime.WorldTime(rng.Intn(50)-10)*avtime.Millisecond
				r := &fakeRun{g: g, due: max(start, 0), unit: units[rng.Intn(len(units))]}
				if rng.Intn(4) == 0 {
					r.failAt = 1 + rng.Intn(6)
				}
				if rng.Intn(3) == 0 {
					r.doneAt = 1 + rng.Intn(10)
				}
				all = append(all, r)
				e.admit(s, r, &Playback{done: make(chan struct{})})
			}
			steps := 0
			for op := 0; op < 800; op++ {
				switch k := rng.Intn(10); {
				case k < 2:
					admit()
				case k < 3: // admissions held between a Pause and a Resume
					e.Pause()
					for n := 1 + rng.Intn(3); n > 0; n-- {
						admit()
					}
					e.Resume()
				case k < 4: // the next tick of a live run admits another
					if len(all) > 0 {
						if r := all[rng.Intn(len(all))]; !r.finished {
							r.onTick = admit
						}
					}
				default:
					steps++
					before := db.clock.Now()
					wasFinished := make([]bool, len(all))
					for i, r := range all {
						wasFinished[i] = r.finished
					}
					if !e.stepOnce() {
						e.mu.Lock()
						e.running = true // the set drained; keep the loop goroutine out
						e.mu.Unlock()
					}
					// Live at the commit: every run not retired before this
					// step, admissions from inside its ticks included.
					var atCommit []engineRun
					for i, r := range all {
						if i >= len(wasFinished) || !wasFinished[i] {
							atCommit = append(atCommit, r)
						}
					}
					want := before
					if h, ok := fullHorizon(atCommit); ok && h > want {
						want = h
					}
					if got := db.clock.Now(); got != want {
						t.Fatalf("op %d (step %d): clock committed to %v, full scan says %v", op, steps, got, want)
					}
					var admitted []engineRun
					for _, en := range e.entries {
						if en != nil {
							admitted = append(admitted, en.run)
						}
					}
					live := 0
					for _, r := range all {
						if !r.finished {
							live++
						}
					}
					if len(admitted) != live || live != e.set.Len() {
						t.Fatalf("op %d: %d entries for %d live runs, run set holds %d", op, len(admitted), live, e.set.Len())
					}
					h, ok := e.horizons.Min()
					wh, wok := fullHorizon(admitted)
					if h != wh || ok != wok {
						t.Fatalf("op %d: heap top %v,%v, full scan %v,%v", op, h, ok, wh, wok)
					}
				}
			}
			if steps < 300 {
				t.Fatalf("only %d steps ran", steps)
			}
		})
	}
}
