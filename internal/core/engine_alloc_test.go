package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/sched"
)

// fakeRun is a no-op engineRun: it advances its due time by one unit
// per tick and allocates nothing.  Admitting fakes isolates the
// engine's own step path — run-set bucket moves, batch resolution,
// label switching, snapshot refresh, horizon heap, clock commit — from
// the graph executor's interior, so TestEngineAllocsPerStep and
// BenchmarkEngineStep measure the engine alone.  Its commit horizon is
// its due time, which matches GraphRun's rule for a fixed tick: the
// start time before the first tick, then the last tick's time plus one
// interval; a failed tick moves nothing.
//
// The zero-valued script ticks forever; TestEngineHorizonMatchesFullScan
// scripts failures, finishes and admissions from inside a tick.
type fakeRun struct {
	g     *activity.Graph
	unit  avtime.WorldTime
	due   avtime.WorldTime
	ticks int

	failAt   int    // the tick, counted from 1, that fails; 0 never
	doneAt   int    // the tick count that finishes the run; 0 never
	onTick   func() // runs once, inside the next tick
	err      error
	done     bool
	finished bool // Finish ran
}

func (f *fakeRun) Graph() *activity.Graph          { return f.g }
func (f *fakeRun) Rate() avtime.Rate               { return avtime.RateVideo30 }
func (f *fakeRun) Ticks() int                      { return f.ticks }
func (f *fakeRun) Err() error                      { return f.err }
func (f *fakeRun) Done() bool                      { return f.done || f.err != nil }
func (f *fakeRun) NextDue() avtime.WorldTime       { return f.due }
func (f *fakeRun) CommitHorizon() avtime.WorldTime { return f.due }
func (f *fakeRun) SetRound(int64)                  {}

func (f *fakeRun) Tick() (bool, error) {
	if fn := f.onTick; fn != nil {
		f.onTick = nil
		fn()
	}
	if f.ticks+1 == f.failAt {
		f.err = errors.New("scripted tick failure")
		return true, f.err
	}
	f.ticks++
	f.due += f.unit
	f.done = f.ticks == f.doneAt
	return f.done, nil
}

func (f *fakeRun) Finish() (*activity.RunStats, error) {
	f.finished = true
	return &activity.RunStats{}, f.err
}

// admitFakeRuns enters n fake runs into the engine with the loop
// goroutine held out (running forced true), so the test drives stepOnce
// synchronously.  Run i starts at phase i%phases (in milliseconds) and
// ticks every phases milliseconds, so every step batches the n/phases
// runs of one phase: with one phase all of them, the widest step, and
// with many a few of many, the sparse one.
func admitFakeRuns(t testing.TB, db *Database, n, phases int) *Engine {
	t.Helper()
	s, err := db.Connect("alloc-harness", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	e := db.Engine()
	e.mu.Lock()
	e.running = true // keep the loop goroutine out; the test steps directly
	e.mu.Unlock()
	g := activity.NewGraph("fake")
	unit := avtime.WorldTime(phases) * avtime.Millisecond
	for i := 0; i < n; i++ {
		due := avtime.WorldTime(i%phases) * avtime.Millisecond
		e.admit(s, &fakeRun{g: g, unit: unit, due: due}, &Playback{done: make(chan struct{})})
	}
	return e
}

// TestEngineAllocsPerStep pins the tentpole target: once warm, one
// engine step — DueBatch off the run set's front buckets, batch resolution,
// per-run label switch and tick, snapshot refresh, reschedule, clock
// commit — performs zero heap allocations of its own.  The runs are
// no-op fakes, so any allocation measured here is engine bookkeeping.
func TestEngineAllocsPerStep(t *testing.T) {
	for _, c := range []struct {
		name      string
		n, phases int
	}{
		{"sessions-1", 1, 1},
		{"sessions-16", 16, 1},
		{"sessions-256", 256, 1},
		{"sparse-256", 256, 16}, // 16 of 256 runs due per step
	} {
		n := c.n
		t.Run(c.name, func(t *testing.T) {
			db := testDB(t)
			e := admitFakeRuns(t, db, n, c.phases)
			// Warm the batch/retired/DueBatch buffers past growth.
			for i := 0; i < 32; i++ {
				e.stepOnce()
			}
			allocs := testing.AllocsPerRun(200, func() { e.stepOnce() })
			if allocs != 0 {
				t.Errorf("engine step allocates %.1f times per step at %d sessions, want 0", allocs, n)
			}
		})
	}
	// With a collector installed every step also records engine.steps
	// and engine.tick.lag through handles, which must not allocate.
	t.Run("observed-16", func(t *testing.T) {
		db := testDB(t)
		col := db.EnableObservability()
		e := admitFakeRuns(t, db, 16, 1)
		for i := 0; i < 32; i++ {
			e.stepOnce()
		}
		allocs := testing.AllocsPerRun(200, func() { e.stepOnce() })
		if allocs != 0 {
			t.Errorf("observed engine step allocates %.1f times per step, want 0", allocs)
		}
		snap := col.Snapshot()
		if got := snap.Counter("engine.steps"); got != 32+201 {
			t.Errorf("engine.steps = %d, want %d", got, 32+201)
		}
		var lagN int64
		for _, h := range snap.Histograms {
			if h.Name == "engine.tick.lag" {
				lagN = h.Hist.N
			}
		}
		if lagN != 32+201 {
			t.Errorf("engine.tick.lag observations = %d, want %d", lagN, 32+201)
		}
	})
}

// BenchmarkEngineStep measures the engine's own per-step cost over
// no-op runs: a few co-due runs, many co-due runs (vod_zipf's shape),
// and few due of many (overload_ramp's).  ReportAllocs keeps the 0
// allocs/op bound visible; TestEngineAllocsPerStep enforces it.
func BenchmarkEngineStep(b *testing.B) {
	for _, c := range []struct {
		name      string
		n, phases int
	}{
		{"narrow-4", 4, 1},
		{"wide-256", 256, 1},
		{"sparse-256", 256, 16},
	} {
		b.Run(c.name, func(b *testing.B) {
			db := testDB(b)
			e := admitFakeRuns(b, db, c.n, c.phases)
			for i := 0; i < 32; i++ {
				e.stepOnce()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.stepOnce()
			}
		})
	}
}

// BenchmarkRunSetCoDue is the run-set share of a vod_zipf step on its
// own: 1000 runs admitted co-due, each step popping the batch and
// moving every member one period on.  One op is one step of 1000 runs;
// it must not allocate.
func BenchmarkRunSetCoDue(b *testing.B) {
	const runs = 1000
	var set sched.RunSet
	for i := 0; i < runs; i++ {
		set.Admit(0)
	}
	period := avtime.RateVideo30.UnitDuration()
	batch := make([]sched.RunID, 0, runs)
	step := func() {
		due, ids, _ := set.DueBatch()
		batch = append(batch[:0], ids...)
		for _, id := range batch {
			set.Reschedule(id, due+period)
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestEngineSessionsPollRace is the regression for the session-listing
// introspection race: it used to call run.Ticks()/Rate()/NextDue()
// after dropping the engine lock while the loop was mid-Tick on the
// same GraphRun — a data race on the run's tick counter that -race
// reports reliably under a busy multi-session load.  SessionsAppend
// reads the loop-maintained snapshot under the lock.
func TestEngineSessionsPollRace(t *testing.T) {
	db := testDB(t)
	var pss []*playbackSession
	for i := 0; i < 3; i++ {
		pss = append(pss, buildPlaybackSession(t, db, fmt.Sprintf("poll-%d", i), 60))
	}
	db.Engine().Pause()
	var pbs []*Playback
	for _, ps := range pss {
		pb, err := ps.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		pbs = append(pbs, pb)
	}

	// Poll introspection from several goroutines for the whole run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, es := range db.Engine().SessionsAppend(nil, 0) {
					if es.Ticks < 0 || es.Due < 0 {
						t.Errorf("implausible snapshot: %+v", es)
						return
					}
				}
			}
		}()
	}
	db.Engine().Resume()
	for _, pb := range pbs {
		if _, err := pb.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, ps := range pss {
		if err := ps.sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineActiveGaugeConsistency is the regression for the
// engine.sessions.active gauge race: both admit and the retire phase
// used to publish the gauge after dropping the engine lock, so an
// interleaved admit/retire pair could publish out of order and leave
// the gauge at a stale count forever.  Publishing inside the critical
// section that changes the count makes the publish order the count
// order, so once the engine drains the gauge must read exactly zero.
func TestEngineActiveGaugeConsistency(t *testing.T) {
	db := testDB(t)
	col := db.EnableObservability()
	const lanes, rounds = 4, 3
	// Graph construction is serial; only Start/Wait/Close race below, so
	// the interleavings exercised are exactly admit vs retire.
	sessions := make([][]*playbackSession, lanes)
	for lane := 0; lane < lanes; lane++ {
		for i := 0; i < rounds; i++ {
			sessions[lane] = append(sessions[lane], buildPlaybackSession(t, db, fmt.Sprintf("gauge-%d-%d", lane, i), 5))
		}
	}
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			// Sequential short playbacks per lane, lanes concurrent with
			// each other and with the engine's retire phase: admissions
			// and retirements interleave heavily.
			for _, ps := range sessions[lane] {
				pb, err := ps.sess.Start()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := pb.Wait(); err != nil {
					t.Error(err)
					return
				}
				if err := ps.sess.Close(); err != nil {
					t.Error(err)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	// Engine drained: every admit was matched by a retire, and because
	// each publish happened atomically with its count change the final
	// published value is the final count.
	if g, ok := snapshotGauge(col.Snapshot(), "engine.sessions.active"); !ok || g != 0 {
		t.Errorf("engine.sessions.active = %d,%v after drain, want 0", g, ok)
	}
	if st := db.Engine().Stats(); st.Active != 0 {
		t.Errorf("engine still has %d active entries after drain", st.Active)
	}
}

// TestAdmitCheckStartEnableRace is the regression for the shed gate's
// torn decision: admitCheck used to spread one shed across three lock
// acquisitions — level check, shedRejected++, and the clock read for
// the RetryAfter hint — so a concurrent EnableOverloadControl could
// swap the detector between them and the counted shed/hint reflected a
// mix of two regimes.  The check, count and hint now form one critical
// section; this test hammers admitCheck against detector swaps under
// -race and asserts every shed is internally consistent: the hint is
// exactly now + RetryAfter of one of the installed policies, and the
// Stats counter matches the number of errors returned.
func TestAdmitCheckStartEnableRace(t *testing.T) {
	db := testDB(t)
	eng := db.Engine()

	// Two regimes with distinguishable retry hints.  overloaded() arms a
	// detector and drives it straight to Overloaded (Window 1: every
	// step is a boundary; 90/100 misses clears the 0.25 default).
	const retryA = 7 * avtime.Second
	const retryB = 31 * avtime.Second
	overloaded := func(retry avtime.WorldTime) {
		det := eng.EnableOverloadControl(sched.OverloadPolicy{Window: 1, RetryAfter: retry})
		det.ObserveStep(100, 90, 0, 0)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				overloaded(retryA)
			case 1:
				// A fresh detector reads Normal: admissions flow again.
				eng.EnableOverloadControl(sched.OverloadPolicy{Window: 1, RetryAfter: retryB})
			case 2:
				overloaded(retryB)
			}
		}
	}()

	now := db.Clock().Now() // no engine running; the clock is static
	var sheds int64
	var checkers sync.WaitGroup
	for i := 0; i < 4; i++ {
		checkers.Add(1)
		go func() {
			defer checkers.Done()
			for j := 0; j < 2000; j++ {
				err := eng.admitCheck()
				if err == nil {
					continue
				}
				atomic.AddInt64(&sheds, 1)
				var oe *OverloadError
				if !errors.As(err, &oe) {
					t.Errorf("admitCheck returned %T, want *OverloadError", err)
					return
				}
				if oe.RetryAfter != now+retryA && oe.RetryAfter != now+retryB {
					t.Errorf("torn retry hint %v: not %v or %v", oe.RetryAfter, now+retryA, now+retryB)
					return
				}
			}
		}()
	}
	checkers.Wait()
	close(stop)
	wg.Wait()
	if got := eng.Stats().Rejected; got != atomic.LoadInt64(&sheds) {
		t.Errorf("Stats().Rejected = %d, but admitCheck returned %d errors", got, sheds)
	}
}
