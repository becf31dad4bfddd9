package core

import (
	"fmt"
	"reflect"
	"testing"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/fault"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/obs"
	"avdb/internal/storage"
)

// engine_shard_test.go pins the parallel engine's guarantee: its output
// is byte-identical to serial for ANY EngineWorkers count, proven the
// same way the serial engine is proven equivalent to back-to-back
// Graph.Run.

// audienceRun is one co-admitted audience played to completion.
type audienceRun struct {
	snap  string               // obs snapshot JSON
	stats []*activity.RunStats // per session, in admission order
	cache []storage.CacheStats // per session, read before close
}

// playAudience plays audience[k] sessions over clip k (15+4k frames,
// each on disk0 of testDB) under the given buffer-pool policy and
// EngineWorkers count.  Every session is admitted into the same first
// engine step, and any of its runs may tick on any worker.
func playAudience(t *testing.T, audience []int, cache storage.CachePolicy, engineWorkers int) audienceRun {
	t.Helper()
	db := testDB(t)
	db.Storage().SetCachePolicy(cache)
	col := db.EnableObservability()
	db.Engine().setWorkers(engineWorkers)
	var pss []*playbackSession
	for k, n := range audience {
		oid := storeNewscast(t, db, fmt.Sprintf("clip-%d", k), 15+4*k)
		for i := 0; i < n; i++ {
			pss = append(pss, bindPlayback(t, db, fmt.Sprintf("viewer-%d-%d", k, i), "lan0", oid))
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

// TestEngineShardedDeterminism sweeps EngineWorkers {1,2,4}: every
// value must produce the same obs snapshot bytes, per-session RunStats
// and per-session cache stats as the serial engine.  The pooled input
// is several viewers per clip over the shared buffer pool (a hot clip,
// a warm one and a single viewer): a clip's viewers tick on different
// workers and hit each other's chunks, so it holds the pool's staged
// (pid, seq) commit to the same bar.
func TestEngineShardedDeterminism(t *testing.T) {
	for _, in := range []struct {
		name     string
		audience []int
		cache    storage.CachePolicy
	}{
		{"unpooled", []int{1, 1, 1, 1, 1}, storage.CachePolicy{}},
		{"pooled", []int{4, 2, 1}, storage.CachePolicy{Capacity: 8, Lookahead: 4}},
	} {
		t.Run(in.name, func(t *testing.T) {
			base := playAudience(t, in.audience, in.cache, 1)
			for _, ew := range []int{2, 4} {
				run := playAudience(t, in.audience, in.cache, ew)
				if !reflect.DeepEqual(base.stats, run.stats) {
					t.Errorf("EngineWorkers=%d: per-session RunStats diverged", ew)
				}
				if !reflect.DeepEqual(base.cache, run.cache) {
					t.Errorf("EngineWorkers=%d: per-session cache stats diverged:\n%+v\nvs serial\n%+v", ew, run.cache, base.cache)
				}
				if run.snap != base.snap {
					t.Errorf("EngineWorkers=%d: obs snapshots differ (%d vs %d bytes)", ew, len(run.snap), len(base.snap))
				}
			}
		})
	}
}

// TestEngineShardedChaosDeterminism is the chaos arm the race detector
// exercises: probabilistic faults under EngineWorkers 2 and 4, repeated,
// compared byte-for-byte against the serial engine.  Two inputs:
//
//   - victim: one session with the full recovery stack rides out
//     transient faults, a mid-run disk outage and a link collapse while
//     bystanders stream on other spindles, untouched;
//   - shared: six unstriped sessions on disk0 and two striped over the
//     disk0+disk1 group all draw from one injector — transient reads on
//     disk0, corruption on their shared lan0 — and sacrifice faulted
//     frames.  Which session loses which frame depends only on the
//     draws, so this holds only because every draw is keyed by the
//     operation, not by the order sessions tick in.
func TestEngineShardedChaosDeterminism(t *testing.T) {
	const frames = 30
	total := avtime.WorldTime(frames) * avtime.Second / 30

	// play co-admits the sessions, plays them out and returns the obs
	// snapshot and per-session outcomes.
	play := func(db *Database, col *obs.Collector, all []*playbackSession) (string, []isoOutcome) {
		db.Engine().Pause()
		var pbs []*Playback
		for _, ps := range all {
			pb, err := ps.sess.Start()
			if err != nil {
				t.Fatal(err)
			}
			pbs = append(pbs, pb)
		}
		db.Engine().Resume()
		outs := make([]isoOutcome, len(all))
		for i, pb := range pbs {
			_, err := pb.Wait()
			outs[i] = isoOutcome{Shown: all[i].win.FramesShown(), Lost: all[i].src.FramesLost()}
			if err != nil {
				outs[i].Err = err.Error()
			}
		}
		for _, ps := range all {
			ps.sess.Close()
		}
		js, err := col.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, outs
	}

	victim := func(engineWorkers int) (string, []isoOutcome) {
		db := isoDB(t, 3)
		col := db.EnableObservability()
		db.Engine().setWorkers(engineWorkers)
		vLink := netsim.NewLink("lan-victim", 12*media.MBPerSecond, 2*avtime.Millisecond, avtime.Millisecond, 7)
		if err := db.Network().AddLink(vLink); err != nil {
			t.Fatal(err)
		}
		inj := fault.NewInjector(fault.NewPlan(7).
			MustAdd(fault.Fault{Kind: fault.TransientRead, Target: "disk0", Start: 0, Dur: total / 2, Probability: 0.4}).
			MustAdd(fault.Fault{Kind: fault.DeviceOutage, Target: "disk0", Start: total * 2 / 5, Dur: total / 10}).
			MustAdd(fault.Fault{Kind: fault.LinkDegrade, Target: "lan-victim", Start: total / 2, Dur: total / 4, Factor: 0.25}),
			db.Clock())
		db.Devices().SetFaultHook(inj)
		vLink.SetFaultHook(inj)

		v := buildPlaybackOn(t, db, "victim", frames, "disk0", "lan-victim")
		v.src.SetRetry(fault.DefaultRetry)
		v.src.SetDropOnFault(true)
		b1 := buildPlaybackOn(t, db, "bystander-1", frames, "disk1", "lan0")
		b2 := buildPlaybackOn(t, db, "bystander-2", frames, "disk2", "lan0")
		return play(db, col, []*playbackSession{v, b1, b2})
	}

	shared := func(engineWorkers int) (string, []isoOutcome) {
		db := isoDB(t, 2)
		col := db.EnableObservability()
		db.Engine().setWorkers(engineWorkers)
		inj := fault.NewInjector(fault.NewPlan(7).
			MustAdd(fault.Fault{Kind: fault.TransientRead, Target: "disk0", Start: 0, Dur: total, Probability: 0.3}).
			MustAdd(fault.Fault{Kind: fault.ChunkCorrupt, Target: "lan0", Start: 0, Dur: total, Probability: 0.2}),
			db.Clock())
		db.Devices().SetFaultHook(inj)
		lan0, _ := db.Network().Link("lan0")
		lan0.SetFaultHook(inj)

		var all []*playbackSession
		for i := 0; i < 6; i++ {
			all = append(all, buildPlaybackOn(t, db, fmt.Sprintf("unstriped-%d", i), frames, "disk0", "lan0"))
		}
		for i := 0; i < 2; i++ {
			client := fmt.Sprintf("striped-%d", i)
			oid := tierNewscast(t, db, client+"-clip", frames)
			if _, err := db.PlaceMediaStriped(oid, "videoTrack", media.MBPerSecond, 2); err != nil {
				t.Fatal(err)
			}
			all = append(all, bindPlayback(t, db, client, "lan0", oid))
		}
		for _, ps := range all {
			ps.src.SetDropOnFault(true)
		}
		return play(db, col, all)
	}

	for _, in := range []struct {
		name  string
		run   func(engineWorkers int) (string, []isoOutcome)
		check func(t *testing.T, serial []isoOutcome)
	}{
		{"victim", victim, func(t *testing.T, outs []isoOutcome) {
			if outs[0].Err != "" {
				t.Errorf("armed victim died: %v", outs[0].Err)
			}
			for i := 1; i < 3; i++ {
				if outs[i] != (isoOutcome{Shown: frames}) {
					t.Errorf("bystander %d touched by victim's faults: %+v", i, outs[i])
				}
			}
		}},
		{"shared", shared, func(t *testing.T, outs []isoOutcome) {
			for i, o := range outs {
				if o.Err != "" || o.Lost == 0 || o.Shown+o.Lost != frames {
					t.Errorf("session %d: %+v, want faulted frames sacrificed and the rest shown", i, o)
				}
			}
		}},
	} {
		t.Run(in.name, func(t *testing.T) {
			serialSnap, serialOuts := in.run(1)
			in.check(t, serialOuts)
			for rep := 0; rep < 2; rep++ {
				for _, ew := range []int{2, 4} {
					snap, outs := in.run(ew)
					if !reflect.DeepEqual(serialOuts, outs) {
						t.Errorf("EngineWorkers=%d rep %d: outcomes diverged: %+v vs %+v", ew, rep, outs, serialOuts)
					}
					if snap != serialSnap {
						t.Errorf("EngineWorkers=%d rep %d: obs snapshot differs from serial (%d vs %d bytes)",
							ew, rep, len(snap), len(serialSnap))
					}
				}
			}
		})
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
