package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/obs"
	"avdb/internal/sched"
	"avdb/internal/schema"
)

// playbackSession wires one VideoReader → VideoWindow stream over its
// own newscast object, ready to Start.
type playbackSession struct {
	sess *Session
	src  *activities.VideoReader
	win  *activities.VideoWindow
}

func buildPlaybackSession(t testing.TB, db *Database, client string, frames int) *playbackSession {
	t.Helper()
	return bindPlayback(t, db, client, "lan0", storeNewscast(t, db, client+"-clip", frames))
}

// bindPlayback wires a reader → window session over the given link to
// the videoTrack of an object that already holds a placed clip.
func bindPlayback(t testing.TB, db *Database, client, link string, oid schema.OID) *playbackSession {
	t.Helper()
	q, err := media.ParseVideoQuality(testQualityStr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := db.Connect(client, link)
	if err != nil {
		t.Fatal(err)
	}
	src, err := activities.NewVideoReader("src", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(src, sched.Resources{Buffers: 1}); err != nil {
		t.Fatal(err)
	}
	win := activities.NewVideoWindow("win", activity.AtApplication, q, avtime.Second)
	if err := sess.Install(win, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Connect(src, "out", win, "in", q.DataRate()); err != nil {
		t.Fatal(err)
	}
	if err := sess.BindValue(oid, "videoTrack", src, "out", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	return &playbackSession{sess: sess, src: src, win: win}
}

// TestEngineSharedClockMonotonic is the regression for the pre-refactor
// hazard: every Session.StartAt used to spawn a private Graph.Run
// goroutine, so two concurrent playbacks advanced the shared virtual
// clock from two goroutines at once — each stream could observe the
// clock jumping backwards relative to its own schedule, differently on
// every run.  Under the engine both graphs tick on one loop, so the
// observed clock sequence is monotonic and identical across repeats.
func TestEngineSharedClockMonotonic(t *testing.T) {
	observe := func() []avtime.WorldTime {
		db := testDB(t)
		a := buildPlaybackSession(t, db, "client-a", 40)
		b := buildPlaybackSession(t, db, "client-b", 25)
		defer a.sess.Close()
		defer b.sess.Close()

		// Handlers run on the engine goroutine, so appends are serialized;
		// pb.Wait() below gives the test goroutine the happens-after edge.
		var seen []avtime.WorldTime
		record := func(activity.EventInfo) { seen = append(seen, db.Clock().Now()) }
		for _, ps := range []*playbackSession{a, b} {
			if err := ps.src.Catch(activity.EventEachFrame, record); err != nil {
				t.Fatal(err)
			}
		}

		// Pause/Resume releases both admissions into the same first step,
		// making the interleave deterministic for the repeat comparison.
		db.Engine().Pause()
		pbA, err := a.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		pbB, err := b.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		db.Engine().Resume()
		if _, err := pbA.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := pbB.Wait(); err != nil {
			t.Fatal(err)
		}
		return seen
	}

	first := observe()
	if len(first) != 40+25 {
		t.Fatalf("observed %d frame events, want %d", len(first), 40+25)
	}
	for i := 1; i < len(first); i++ {
		if first[i] < first[i-1] {
			t.Fatalf("clock went backwards at event %d: %v -> %v", i, first[i-1], first[i])
		}
	}
	second := observe()
	if !reflect.DeepEqual(first, second) {
		t.Error("two identical concurrent runs observed different clock sequences")
	}
}

// TestEngineCrossSessionDeterminism pins N concurrent sessions to one
// byte stream: on every repeat the obs snapshot (spans, metrics, engine
// counters) and each session's RunStats must be identical, however the
// host schedules the engine loop and the waiting clients
// (TestEngineShardedDeterminism sweeps EngineWorkers).
func TestEngineCrossSessionDeterminism(t *testing.T) {
	const sessions = 3
	run := func() (string, []*activity.RunStats) {
		db := testDB(t)
		col := db.EnableObservability()
		var pss []*playbackSession
		for i := 0; i < sessions; i++ {
			ps := buildPlaybackSession(t, db, "client-"+string(rune('a'+i)), 20+5*i)
			pss = append(pss, ps)
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
		db.Engine().Resume()
		var all []*activity.RunStats
		for _, pb := range pbs {
			stats, err := pb.Wait()
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, stats)
		}
		for _, ps := range pss {
			if err := ps.sess.Close(); err != nil {
				t.Fatal(err)
			}
		}
		js, err := col.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, all
	}

	baseSnap, baseStats := run()
	for repeat := 1; repeat <= 2; repeat++ {
		snap, stats := run()
		if !reflect.DeepEqual(baseStats, stats) {
			t.Errorf("repeat %d: per-session RunStats diverged", repeat)
		}
		if snap != baseSnap {
			t.Errorf("repeat %d: obs snapshots differ (%d vs %d bytes); %s",
				repeat, len(snap), len(baseSnap), firstDifferingLine(snap, baseSnap))
		}
	}
}

// firstDifferingLine locates where two multi-line renderings part ways.
func firstDifferingLine(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("first difference at line %d: %q vs %q", i+1, gl, wl)
		}
	}
	return "no differing line"
}

// TestEngineRetirePublishesBeforeWaitReturns is the regression for the
// retire phase completing the playback before it counted the run: a
// client blocked in Wait could wake, snapshot, and read
// engine.runs.finished one short — which is how the cross-session
// determinism test used to fail once in some hundred runs.  The waiter
// here is already blocked in Wait when the engine is released and reads
// the registry the moment it wakes.
func TestEngineRetirePublishesBeforeWaitReturns(t *testing.T) {
	db := testDB(t)
	col := db.EnableObservability()
	for round := 1; round <= 100; round++ {
		ps := buildPlaybackSession(t, db, fmt.Sprintf("retire-%d", round), 2)
		db.Engine().Pause()
		pb, err := ps.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		type reading struct {
			finished, active int64
			err              error
		}
		waiting := make(chan struct{})
		got := make(chan reading, 1)
		go func() {
			close(waiting)
			_, err := pb.Wait()
			snap := col.Snapshot()
			active, _ := snapshotGauge(snap, "engine.sessions.active")
			got <- reading{snap.Counter("engine.runs.finished"), active, err}
		}()
		<-waiting
		runtime.Gosched() // let the waiter reach Wait before anything can finish
		db.Engine().Resume()
		r := <-got
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.finished != int64(round) || r.active != 0 {
			t.Fatalf("round %d: a waiter woken by Wait read engine.runs.finished=%d (want %d), engine.sessions.active=%d (want 0)",
				round, r.finished, round, r.active)
		}
		if err := ps.sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineMultiRateSessions runs two sessions at different tick rates
// on the one clock: the engine steps at each run's own next-due time
// (no LCM grid), and both streams complete with their full frame
// counts.
func TestEngineMultiRateSessions(t *testing.T) {
	db := testDB(t)
	fast := buildPlaybackSession(t, db, "fast", 30)
	slow := buildPlaybackSession(t, db, "slow", 15)
	defer fast.sess.Close()
	defer slow.sess.Close()

	db.Engine().Pause()
	pbF, err := fast.sess.StartAt(avtime.RateVideo30, 0)
	if err != nil {
		t.Fatal(err)
	}
	pbS, err := slow.sess.StartAt(avtime.MakeRate(15, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	db.Engine().Resume()

	statsF, err := pbF.Wait()
	if err != nil {
		t.Fatal(err)
	}
	statsS, err := pbS.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if statsF.Ticks != 30 || fast.win.FramesShown() != 30 {
		t.Errorf("fast: ticks=%d shown=%d, want 30/30", statsF.Ticks, fast.win.FramesShown())
	}
	if statsS.Ticks != 15 || slow.win.FramesShown() != 15 {
		t.Errorf("slow: ticks=%d shown=%d, want 15/15", statsS.Ticks, slow.win.FramesShown())
	}
	// The 15Hz stream spans the same second the 30Hz stream does; the
	// shared clock must have covered both schedules.
	if now := db.Clock().Now(); now < avtime.Second {
		t.Errorf("final clock %v does not cover the 1s schedules", now)
	}
}

// stopBombSink is a sink whose teardown always fails, for exercising
// Stop-error reporting through Playback and Session.Close.
type stopBombSink struct {
	*activity.Base
	fail error
}

func newStopBombSink(name string, fail error) *stopBombSink {
	s := &stopBombSink{Base: activity.NewBase(name, "StopBomb", activity.AtApplication), fail: fail}
	s.AddPort("in", activity.In, media.TypeRawVideo30)
	return s
}

func (s *stopBombSink) Tick(*activity.TickContext) error { return nil }

func (s *stopBombSink) Stop() error {
	_ = s.Base.Stop()
	return s.fail
}

// TestPlaybackStopErrorReporting covers the satellite fix: Playback.Stop
// used to discard the error Graph.Stop returns; now it surfaces the
// teardown failure and Session.Close folds it into its report.
func TestPlaybackStopErrorReporting(t *testing.T) {
	errBoom := errors.New("dac wedged on stop")
	db := testDB(t)
	oid := storeNewscast(t, db, "clip", 5)
	sess, err := db.Connect("app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	src, err := activities.NewVideoReader("src", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(src, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	bomb := newStopBombSink("sink", errBoom)
	if err := sess.Install(bomb, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Connect(src, "out", bomb, "in", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	if err := sess.BindValue(oid, "videoTrack", src, "out", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pb.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The engine's retirement pass already saw the teardown failure.
	if !errors.Is(stats.StopErr, errBoom) {
		t.Errorf("stats.StopErr = %v, want wrapped %v", stats.StopErr, errBoom)
	}
	// An explicit client Stop reports it too (the old API dropped it).
	if err := pb.Stop(); !errors.Is(err, errBoom) {
		t.Errorf("Playback.Stop = %v, want wrapped %v", err, errBoom)
	}
	// And Close folds the failure into its report.
	if err := sess.Close(); !errors.Is(err, errBoom) {
		t.Errorf("Session.Close = %v, want wrapped %v", err, errBoom)
	}
}

// TestEngineIntrospection checks the run-set listing avdbsh's `sessions`
// command renders: entries visible with their state while admitted, the
// counters advancing as runs retire.
func TestEngineIntrospection(t *testing.T) {
	db := testDB(t)
	a := buildPlaybackSession(t, db, "client-a", 10)
	b := buildPlaybackSession(t, db, "client-b", 20)
	defer a.sess.Close()
	defer b.sess.Close()

	eng := db.Engine()
	eng.Pause()
	pbA, err := a.sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	pbB, err := b.sess.StartAt(avtime.MakeRate(15, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	list := eng.SessionsAppend(nil, 0)
	if len(list) != 2 {
		t.Fatalf("SessionsAppend = %d entries, want 2", len(list))
	}
	if list[0].Session != a.sess.ID() || list[1].Session != b.sess.ID() {
		t.Errorf("admission order lost: %q then %q", list[0].Session, list[1].Session)
	}
	for i, es := range list {
		if es.State != "admitted" || es.Ticks != 0 {
			t.Errorf("entry %d before resume: state=%q ticks=%d", i, es.State, es.Ticks)
		}
	}
	if list[1].Rate != avtime.MakeRate(15, 1) {
		t.Errorf("entry 1 rate = %v, want 15Hz", list[1].Rate)
	}
	if st := eng.Stats(); !st.Paused || st.Active != 2 {
		t.Errorf("paused stats = %+v", st)
	}
	eng.Resume()
	if _, err := pbA.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := pbB.Wait(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := eng.Stats()
		if st.Active == 0 && st.Finished >= 2 {
			if st.Steps < 20 {
				t.Errorf("engine ran %d steps, want >= 20", st.Steps)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if list := eng.SessionsAppend(nil, 0); len(list) != 0 {
		t.Errorf("SessionsAppend after drain = %v", list)
	}
}

// BenchmarkEngineSessions measures the host cost of the shared run loop
// as concurrent sessions scale: each iteration admits n playbacks into
// one engine step stream and drains them.
func BenchmarkEngineSessions(b *testing.B) {
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("sessions-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := testDB(b)
				var pss []*playbackSession
				for j := 0; j < n; j++ {
					pss = append(pss, buildPlaybackSession(b, db, fmt.Sprintf("client-%d", j), 30))
				}
				b.StartTimer()
				db.Engine().Pause()
				var pbs []*Playback
				for _, ps := range pss {
					pb, err := ps.sess.Start()
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
				for _, ps := range pss {
					ps.sess.Close()
				}
				b.StartTimer()
			}
		})
	}
}

// tickBombSink fails its tick once it has taken `after` chunks.
type tickBombSink struct {
	*activity.Base
	after, took int
	fail        error
}

func (s *tickBombSink) Tick(tc *activity.TickContext) error {
	if tc.In("in") == nil {
		return nil
	}
	if s.took++; s.took > s.after {
		return s.fail
	}
	return nil
}

// TestEngineTickErrorReachesWait: the engine drops the error a run's
// Tick returns and reads it back from the run when it retires it, so a
// failing tick must still reach Playback.Wait, at every EngineWorkers
// count, while the session stepped beside it plays to the end.
func TestEngineTickErrorReachesWait(t *testing.T) {
	const frames, after = 20, 5
	errBoom := errors.New("sink wedged")
	for _, ew := range []int{1, 2} {
		db := testDB(t)
		db.Engine().setWorkers(ew)
		oid := storeNewscast(t, db, "clip", frames)
		good := bindPlayback(t, db, "good", "lan0", oid)
		bad, err := db.Connect("bad", "lan0")
		if err != nil {
			t.Fatal(err)
		}
		src, err := activities.NewVideoReader("src", activity.AtDatabase, media.TypeRawVideo30)
		if err != nil {
			t.Fatal(err)
		}
		bomb := &tickBombSink{Base: activity.NewBase("sink", "TickBomb", activity.AtApplication), after: after, fail: errBoom}
		bomb.AddPort("in", activity.In, media.TypeRawVideo30)
		for _, a := range []activity.Activity{src, bomb} {
			if err := bad.Install(a, sched.Resources{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := bad.Connect(src, "out", bomb, "in", media.MBPerSecond); err != nil {
			t.Fatal(err)
		}
		if err := bad.BindValue(oid, "videoTrack", src, "out", media.MBPerSecond); err != nil {
			t.Fatal(err)
		}
		db.Engine().Pause()
		pbGood, err := good.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		pbBad, err := bad.Start()
		if err != nil {
			t.Fatal(err)
		}
		db.Engine().Resume()
		stats, err := pbBad.Wait()
		if !errors.Is(err, errBoom) {
			t.Fatalf("EngineWorkers=%d: Wait = %v, want the tick's %v", ew, err, errBoom)
		}
		if stats == nil || stats.Ticks != after {
			t.Errorf("EngineWorkers=%d: the failed run reports %+v, want %d clean ticks", ew, stats, after)
		}
		if _, err := pbGood.Wait(); err != nil {
			t.Fatalf("EngineWorkers=%d: the healthy session failed too: %v", ew, err)
		}
		if n := good.win.FramesShown(); n != frames {
			t.Errorf("EngineWorkers=%d: the healthy session showed %d frames, want %d", ew, n, frames)
		}
		for _, s := range []*Session{good.sess, bad} {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// snapshotGauge reads a gauge from a snapshot, reporting whether it was
// set.
func snapshotGauge(s *obs.Snapshot, name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}
