package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
)

// degradableSession is a playbackSession with an armed degradation path
// whose grant the engine's sweep can shrink and grow.
type degradableSession struct {
	*playbackSession
	grant *sched.Grant
}

func buildDegradableSession(t testing.TB, db *Database, client string, frames int, prio sched.Priority) *degradableSession {
	t.Helper()
	ps := buildPlaybackSession(t, db, client, frames)
	ps.sess.SetPriority(prio)
	q, err := media.ParseVideoQuality(testQualityStr)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := db.Admission().Reserve(ResourcesForVideo(q))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { grant.Release() })
	fallback := media.VideoQuality{Width: 16, Height: 12, Depth: 8, FPS: 30}
	if err := ps.sess.EnableDegradation(DegradeSpec{
		Source: ps.src, Port: "out", Sink: ps.win, Quality: fallback, Grant: grant,
	}); err != nil {
		t.Fatal(err)
	}
	return &degradableSession{playbackSession: ps, grant: grant}
}

// TestSessionPriorityPlumbing covers the service-class wiring: a new
// session is PriorityNormal and SetPriority overrides it.
func TestSessionPriorityPlumbing(t *testing.T) {
	db, err := Open(Config{
		Name:      "prio",
		Resources: sched.Resources{Buffers: 8, CPU: 100 * media.MBPerSecond, Bus: 100 * media.MBPerSecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Network().AddLink(netsim.NewLink("lan0", 12*media.MBPerSecond, avtime.Millisecond, 0, 1)); err != nil {
		t.Fatal(err)
	}
	sess, err := db.Connect("app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := sess.Priority(); got != sched.PriorityNormal {
		t.Errorf("default priority = %v, want %v", got, sched.PriorityNormal)
	}
	sess.SetPriority(sched.PriorityHigh)
	if got := sess.Priority(); got != sched.PriorityHigh {
		t.Errorf("after SetPriority: %v, want %v", got, sched.PriorityHigh)
	}
}

// TestSessionStartShedWhenOverloaded drives the detector to Overloaded
// and checks the load-shedding contract: Start fails with a sentinel the
// client can test with errors.Is, the error carries a virtual-time retry
// hint, and once pressure drops below Overloaded the same session is
// admitted.
func TestSessionStartShedWhenOverloaded(t *testing.T) {
	db := testDB(t)
	det := db.Engine().EnableOverloadControl(sched.OverloadPolicy{Window: 1, RetryAfter: avtime.Second})

	// One window of pure misses: immediate escalation to Overloaded.
	if level, _, _ := det.ObserveStep(4, 4, 1, 0); level != sched.PressureOverloaded {
		t.Fatalf("level after miss window = %v, want Overloaded", level)
	}

	ps := buildPlaybackSession(t, db, "late", 10)
	defer ps.sess.Close()
	_, err := ps.sess.Start()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Start under overload = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("Start error %T does not unwrap to *OverloadError", err)
	}
	if want := db.Clock().Now() + avtime.Second; oe.RetryAfter != want {
		t.Errorf("RetryAfter = %v, want %v", oe.RetryAfter, want)
	}
	st := db.Engine().Stats()
	if !st.OverloadOn || st.Pressure != sched.PressureOverloaded || st.Rejected != 1 {
		t.Errorf("engine stats under overload = %+v", st)
	}

	// Two clean windows step the level down to Pressured, which still
	// admits; the retry the error hinted at now succeeds.
	det.ObserveStep(10, 0, 0, 0)
	if level, _, _ := det.ObserveStep(10, 0, 0, 0); level != sched.PressurePressured {
		t.Fatalf("level after clean windows = %v, want Pressured", level)
	}
	pb, err := ps.sess.Start()
	if err != nil {
		t.Fatalf("Start after pressure cleared: %v", err)
	}
	if _, err := pb.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDegradeSweepPriorityOrder exercises the sweep directly: with
// High, Normal and Low priority sessions all armed, Pressured sweeps
// degrade one victim per window lowest class first, Overloaded takes the
// whole lowest class at once, and the high-priority session is never
// degraded while a lower class still has headroom to give.  Restores run
// in reverse order and put the grant back.
func TestEngineDegradeSweepPriorityOrder(t *testing.T) {
	db := testDB(t)
	// A huge window keeps the live loop's own evaluations out of the
	// test; the sweeps below are called directly while paused.
	db.Engine().EnableOverloadControl(sched.OverloadPolicy{Window: 1 << 30})

	high := buildDegradableSession(t, db, "pri-high", 10, sched.PriorityHigh)
	norm := buildDegradableSession(t, db, "pri-norm", 10, sched.PriorityNormal)
	low := buildDegradableSession(t, db, "pri-low", 10, sched.PriorityLow)
	all := []*degradableSession{high, norm, low}

	q, _ := media.ParseVideoQuality(testQualityStr)
	fallback := media.VideoQuality{Width: 16, Height: 12, Depth: 8, FPS: 30}
	fullRes, degRes := ResourcesForVideo(q), ResourcesForVideo(fallback)

	eng := db.Engine()
	eng.Pause()
	var pbs []*Playback
	for _, ds := range all {
		pb, err := ds.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		pbs = append(pbs, pb)
	}

	now := db.Clock().Now()
	degraded := func() []bool {
		return []bool{high.sess.Degraded(), norm.sess.Degraded(), low.sess.Degraded()}
	}
	check := func(stage string, want []bool) {
		t.Helper()
		got := degraded()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: degraded [high norm low] = %v, want %v", stage, got, want)
			}
		}
	}

	// Pressured: one victim per window, lowest class first.
	eng.degradeSweep(sched.PressurePressured, now)
	check("sweep 1", []bool{false, false, true})
	if got := low.grant.Resources(); got != degRes {
		t.Errorf("low grant after degrade = %v, want %v", got, degRes)
	}
	eng.degradeSweep(sched.PressurePressured, now)
	check("sweep 2", []bool{false, true, true})

	// Overloaded: the whole lowest class present (now only High remains).
	eng.degradeSweep(sched.PressureOverloaded, now)
	check("sweep 3", []bool{true, true, true})

	st := eng.Stats()
	if st.Degraded != 3 || st.DegradedNow != 3 {
		t.Errorf("stats after sweeps = %+v, want Degraded=3 DegradedNow=3", st)
	}

	// Restores pop most-recently-degraded first: high, then norm, then
	// low — the first victim is the last made whole.
	eng.restoreSweep(now)
	check("restore 1", []bool{false, true, true})
	eng.restoreSweep(now)
	check("restore 2", []bool{false, false, true})
	eng.restoreSweep(now)
	check("restore 3", []bool{false, false, false})
	for i, ds := range all {
		if got := ds.grant.Resources(); got != fullRes {
			t.Errorf("session %d grant after restore = %v, want %v", i, got, fullRes)
		}
	}
	st = eng.Stats()
	if st.Restored != 3 || st.DegradedNow != 0 {
		t.Errorf("stats after restores = %+v, want Restored=3 DegradedNow=0", st)
	}

	eng.Resume()
	for _, pb := range pbs {
		if _, err := pb.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for _, ds := range all {
		if err := ds.sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineRestoreEmitsEvents checks the event contract around a full
// degrade/restore cycle: EventDegraded then EventRestored on the sink,
// with the window back at full quality afterwards.
func TestEngineRestoreEmitsEvents(t *testing.T) {
	db := testDB(t)
	db.Engine().EnableOverloadControl(sched.OverloadPolicy{Window: 1 << 30})
	ds := buildDegradableSession(t, db, "cycle", 10, sched.PriorityLow)

	var events []activity.Event
	for _, ev := range []activity.Event{activity.EventDegraded, activity.EventRestored} {
		ev := ev
		if err := ds.win.Catch(ev, func(activity.EventInfo) { events = append(events, ev) }); err != nil {
			t.Fatal(err)
		}
	}

	eng := db.Engine()
	eng.Pause()
	pb, err := ds.sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	now := db.Clock().Now()
	eng.degradeSweep(sched.PressurePressured, now)
	if !ds.sess.Degraded() {
		t.Fatal("session not degraded after sweep")
	}
	eng.restoreSweep(now)
	if ds.sess.Degraded() {
		t.Fatal("session still degraded after restore sweep")
	}
	eng.Resume()
	if _, err := pb.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := ds.sess.Close(); err != nil {
		t.Fatal(err)
	}
	want := []activity.Event{activity.EventDegraded, activity.EventRestored}
	if len(events) != len(want) || events[0] != want[0] || events[1] != want[1] {
		t.Errorf("event sequence = %v, want %v", events, want)
	}
}

// BenchmarkEngineOverload measures the host cost the overload-control
// path adds to the shared run loop — per-step detector feeding, window
// evaluation and the armed sweep machinery — against the identical
// four-session playback with control disabled.
func BenchmarkEngineOverload(b *testing.B) {
	for _, control := range []bool{false, true} {
		name := "control-off"
		if control {
			name = "control-on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := testDB(b)
				if control {
					db.Engine().EnableOverloadControl(sched.OverloadPolicy{})
				}
				var dss []*degradableSession
				for j := 0; j < 4; j++ {
					prio := sched.PriorityLow
					if j%2 == 0 {
						prio = sched.PriorityHigh
					}
					dss = append(dss, buildDegradableSession(b, db, fmt.Sprintf("bench-%d", j), 30, prio))
				}
				b.StartTimer()
				db.Engine().Pause()
				var pbs []*Playback
				for _, ds := range dss {
					pb, err := ds.sess.Start()
					if err != nil {
						b.Fatal(err)
					}
					pbs = append(pbs, pb)
				}
				db.Engine().Resume()
				for _, pb := range pbs {
					if _, err := pb.Wait(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				for _, ds := range dss {
					ds.sess.Close()
				}
				b.StartTimer()
			}
		})
	}
}

// TestWatchStallsWhileStepping: a client goroutine adds stall detectors
// with WatchStalls while the engine steps under overload control.  The
// step reads the watched detectors without the session lock (go test
// -race checks the publication), every step's stall delta is
// non-negative, and the deltas the steps feed the pressure detector sum
// to every episode the watched detectors saw — including detectors
// added mid-run with episodes already recorded.
func TestWatchStallsWhileStepping(t *testing.T) {
	db := testDB(t)
	e := db.Engine()
	e.EnableOverloadControl(sched.OverloadPolicy{Window: 4})
	ps := buildPlaybackSession(t, db, "watched", 400)
	e.mu.Lock()
	e.running = true // keep the loop goroutine out; the test steps directly
	e.mu.Unlock()
	if _, err := ps.sess.Start(); err != nil {
		t.Fatal(err)
	}
	var en *engineEntry
	for _, x := range e.entries {
		if x != nil && x.sess == ps.sess {
			en = x
		}
	}
	if en == nil {
		t.Fatal("the started session has no engine entry")
	}

	const watched = 64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < watched; i++ {
			d := sched.NewStallDetector(avtime.Millisecond, 1)
			d.Record(0, avtime.Second) // one episode before it is watched
			ps.sess.WatchStalls(d)
			runtime.Gosched()
		}
	}()
	var sum int64
	step := func() bool {
		before := en.lastStalls
		if !e.stepOnce() {
			return false
		}
		delta := en.lastStalls - before
		if delta < 0 {
			t.Fatalf("a step fed a negative stall delta %d", delta)
		}
		sum += delta
		return true
	}
	// Step while the watcher runs.  A watcher the host leaves unscheduled
	// for the whole run is waited for before the run's last steps, so a
	// step after it always follows.
	for left := 390; ; left-- {
		select {
		case <-done:
		default:
			if left > 0 {
				if !step() {
					t.Fatal("the run finished early")
				}
				continue
			}
			<-done
		}
		break
	}
	if !step() {
		t.Fatal("the run finished before a step after the watcher")
	}
	if sum != watched || ps.sess.stallEpisodes() != watched {
		t.Fatalf("stall deltas sum to %d over %d episodes seen; want %d", sum, ps.sess.stallEpisodes(), watched)
	}
	for step() {
	}
	if err := ps.sess.Close(); err != nil {
		t.Fatal(err)
	}
}
