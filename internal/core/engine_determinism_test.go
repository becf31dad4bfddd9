package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
	"avdb/internal/storage"
)

// engine_determinism_test.go pins the engine's determinism: the same
// co-admitted sessions, repeated, produce the same bytes, because every
// run ticks on the one engine loop in admission order.

// audienceRun is one co-admitted audience played to completion.
type audienceRun struct {
	snap  string               // obs snapshot JSON
	stats []*activity.RunStats // per session, in admission order
	cache []storage.CacheStats // per session, read before close
}

// playAudience plays audience[k] sessions over clip k (15+4k frames,
// each on disk0 of testDB) under the given buffer-pool policy.  Every
// session is admitted into the same first engine step, in bind order or,
// with reverse, in the reverse of it.
func playAudience(t *testing.T, audience []int, cache storage.CachePolicy, reverse bool) audienceRun {
	t.Helper()
	db := testDB(t)
	db.Storage().SetCachePolicy(cache)
	col := db.EnableObservability()
	var pss []*playbackSession
	for k, n := range audience {
		oid := storeNewscast(t, db, fmt.Sprintf("clip-%d", k), 15+4*k)
		for i := 0; i < n; i++ {
			pss = append(pss, bindPlayback(t, db, fmt.Sprintf("viewer-%d-%d", k, i), "lan0", oid))
		}
	}
	if reverse {
		for i, j := 0, len(pss)-1; i < j; i, j = i+1, j-1 {
			pss[i], pss[j] = pss[j], pss[i]
		}
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
	var run audienceRun
	for i, pb := range pbs {
		stats, err := pb.Wait()
		if err != nil {
			t.Fatal(err)
		}
		run.stats = append(run.stats, stats)
		run.cache = append(run.cache, pss[i].sess.CacheStats())
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
	run.snap = js
	return run
}

// TestEngineAudienceDeterminism plays one audience twice: both runs
// must produce the same obs snapshot bytes, per-session RunStats and
// per-session cache stats.  The pooled input is several viewers per
// clip over the shared buffer pool (a hot clip, a warm one and a single
// viewer): a clip's viewers hit each other's chunks, so it holds the
// pool's staged commit to the same bar.  pooled-start-reversed starts
// the same audience in the reverse of bind order, so the pool ids given
// out at bind no longer follow the admission order the engine ticks in:
// the commit applies ops in staging order, not sorted by pool id.
func TestEngineAudienceDeterminism(t *testing.T) {
	pooled := storage.CachePolicy{Capacity: 8, Lookahead: 4}
	for _, in := range []struct {
		name     string
		audience []int
		cache    storage.CachePolicy
		reverse  bool
	}{
		{"unpooled", []int{1, 1, 1, 1, 1}, storage.CachePolicy{}, false},
		{"pooled", []int{4, 2, 1}, pooled, false},
		{"pooled-start-reversed", []int{4, 2, 1}, pooled, true},
	} {
		t.Run(in.name, func(t *testing.T) {
			first := playAudience(t, in.audience, in.cache, in.reverse)
			again := playAudience(t, in.audience, in.cache, in.reverse)
			if !reflect.DeepEqual(first.stats, again.stats) {
				t.Error("per-session RunStats differ across repeats")
			}
			if !reflect.DeepEqual(first.cache, again.cache) {
				t.Errorf("per-session cache stats differ across repeats:\n%+v\nvs\n%+v", again.cache, first.cache)
			}
			if again.snap != first.snap {
				t.Errorf("obs snapshots differ across repeats (%d vs %d bytes)", len(again.snap), len(first.snap))
			}
		})
	}
}

// workersDB opens a one-disk test platform through Open with the given
// Config.EngineWorkers, which Open ignores.
func workersDB(t *testing.T, engineWorkers int) *Database {
	t.Helper()
	db, err := Open(Config{
		Name:          "workers",
		Resources:     sched.Resources{Buffers: 64, CPU: 40 * media.MBPerSecond, Bus: 80 * media.MBPerSecond},
		EngineWorkers: engineWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Devices().Register(device.NewDisk("disk0", 2_000_000_000, 20*media.MBPerSecond, 10*avtime.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := db.Network().AddLink(netsim.NewLink("lan0", 12*media.MBPerSecond, 2*avtime.Millisecond, avtime.Millisecond, 7)); err != nil {
		t.Fatal(err)
	}
	defineTestClasses(t, db)
	return db
}

// TestEngineHandlerAdmission: a host session's EACH_FRAME handler
// starts a guest session every fifth frame, from inside the host's
// tick on the engine loop.  The guests join the run set at the same
// step on every run, so a database opened with EngineWorkers 4 gives
// the same obs snapshot and RunStats as one opened with EngineWorkers 1:
// the knob is ignored, and no goroutine beyond the engine loop ever
// ticks a run.
func TestEngineHandlerAdmission(t *testing.T) {
	const hostFrames, guests = 30, 4
	run := func(engineWorkers int) (string, []*activity.RunStats) {
		db := workersDB(t, engineWorkers)
		col := db.EnableObservability()
		host := buildPlaybackSession(t, db, "host", hostFrames)
		var gs []*playbackSession
		for i := 0; i < guests; i++ {
			gs = append(gs, buildPlaybackSession(t, db, fmt.Sprintf("guest-%d", i), 10+3*i))
		}

		// The handler runs on the engine loop; the host's Wait gives this
		// goroutine the happens-after edge for pbs and extra.
		var pbs []*Playback
		extra := 0 // most goroutines seen inside a tick beyond base
		base := runtime.NumGoroutine()
		if err := host.src.Catch(activity.EventEachFrame, func(ev activity.EventInfo) {
			extra = max(extra, runtime.NumGoroutine()-base)
			if ev.Seq%5 != 0 || len(pbs) == guests {
				return
			}
			pb, err := gs[len(pbs)].sess.Start()
			if err != nil {
				t.Error(err)
				return
			}
			pbs = append(pbs, pb)
		}); err != nil {
			t.Fatal(err)
		}
		pb, err := host.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		stats, err := pb.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(pbs) != guests {
			t.Fatalf("the handler started %d guests, want %d", len(pbs), guests)
		}
		if extra > 1 {
			t.Errorf("EngineWorkers=%d: %d goroutines beyond the test's ran during a tick, want only the engine loop", engineWorkers, extra)
		}
		all := []*activity.RunStats{stats}
		for _, pb := range pbs {
			st, err := pb.Wait()
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, st)
		}
		for _, ps := range append(gs, host) {
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

	serialSnap, serialStats := run(1)
	snap, stats := run(4)
	if !reflect.DeepEqual(serialStats, stats) {
		t.Error("EngineWorkers=4: per-session RunStats differ from EngineWorkers=1")
	}
	if snap != serialSnap {
		t.Errorf("EngineWorkers=4: obs snapshot differs from EngineWorkers=1 (%d vs %d bytes)", len(snap), len(serialSnap))
	}
}

// TestEngineSessionsTop covers the capped listing avdbsh uses at scale:
// SessionsAppend returns the first N in admission order, reuses the
// caller's buffer, and a zero cap returns everything.
func TestEngineSessionsTop(t *testing.T) {
	db := testDB(t)
	eng := db.Engine()
	var pss []*playbackSession
	var pbs []*Playback
	eng.Pause()
	for i := 0; i < 5; i++ {
		ps := buildPlaybackSession(t, db, fmt.Sprintf("top-%d", i), 10)
		pb, err := ps.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		pss = append(pss, ps)
		pbs = append(pbs, pb)
	}

	buf := eng.SessionsAppend(nil, 3)
	if len(buf) != 3 {
		t.Fatalf("SessionsAppend(top=3) = %d entries, want 3", len(buf))
	}
	for i, es := range buf {
		if want := pss[i].sess.ID(); es.Session != want {
			t.Errorf("entry %d = %q, want %q (admission order)", i, es.Session, want)
		}
	}
	// Reuse: truncating and re-filling the same buffer must not grow it.
	buf = buf[:0]
	capBefore := cap(buf)
	buf = eng.SessionsAppend(buf, 3)
	if cap(buf) != capBefore {
		t.Errorf("retained buffer reallocated: cap %d -> %d", capBefore, cap(buf))
	}
	if all := eng.SessionsAppend(nil, 0); len(all) != 5 {
		t.Errorf("SessionsAppend(top=0) = %d entries, want 5", len(all))
	}
	if all := eng.SessionsAppend(nil, 99); len(all) != 5 {
		t.Errorf("SessionsAppend(top=99) = %d entries, want 5", len(all))
	}

	eng.Resume()
	for i, pb := range pbs {
		pb.Wait()
		pss[i].sess.Close()
	}
}
