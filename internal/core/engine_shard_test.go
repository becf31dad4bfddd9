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
)

// engine_shard_test.go pins the PR 9 guarantee: the sharded engine's
// output is byte-identical to serial for ANY EngineWorkers count,
// proven the same way the PR 5 suite proved the serial engine
// equivalent to back-to-back Graph.Run.

// TestEngineShardedDeterminism sweeps EngineWorkers {1,2,4}: every
// value must produce the same obs snapshot bytes and the same
// per-session RunStats as the serial engine.  Sessions are unstriped
// here, so shard assignment is round-robin; the Zipf tenancy experiment
// covers stripe-keyed shards.
func TestEngineShardedDeterminism(t *testing.T) {
	const sessions = 5
	run := func(engineWorkers int) (string, []*activity.RunStats) {
		db := testDB(t)
		col := db.EnableObservability()
		db.Engine().setWorkers(engineWorkers)
		var pss []*playbackSession
		for i := 0; i < sessions; i++ {
			ps := buildPlaybackSession(t, db, fmt.Sprintf("shard-%d", i), 15+4*i)
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

	baseSnap, baseStats := run(1)
	for _, ew := range []int{2, 4} {
		snap, stats := run(ew)
		if !reflect.DeepEqual(baseStats, stats) {
			t.Errorf("EngineWorkers=%d: per-session RunStats diverged", ew)
		}
		if snap != baseSnap {
			t.Errorf("EngineWorkers=%d: obs snapshots differ (%d vs %d bytes)", ew, len(snap), len(baseSnap))
		}
	}
}

// TestEngineShardedChaosDeterminism is the chaos arm the race detector
// exercises: a victim session with the full recovery stack rides out
// probabilistic transient faults, a mid-run disk outage and a link
// collapse while bystanders stream on other spindles — all under
// EngineWorkers 4, repeated, and compared byte-for-byte against the
// serial engine.  The probabilistic fault targets disk0, which exactly
// one session reads, so its RNG draws serialize inside that session's
// tick stream and stay deterministic under parallel stepping.
func TestEngineShardedChaosDeterminism(t *testing.T) {
	const frames = 30
	total := avtime.WorldTime(frames) * avtime.Second / 30

	run := func(engineWorkers int) (string, []isoOutcome) {
		db := isoDB(t, 3)
		col := db.EnableObservability()
		db.Engine().setWorkers(engineWorkers)
		vLink := netsim.NewLink("lan-victim", 12*media.MBPerSecond, 2*avtime.Millisecond, avtime.Millisecond, 7)
		if err := db.Network().AddLink(vLink); err != nil {
			t.Fatal(err)
		}

		plan := fault.NewPlan(7)
		for _, f := range []fault.Fault{
			{Kind: fault.TransientRead, Target: "disk0", Start: 0, Dur: total / 2, Probability: 0.4},
			{Kind: fault.DeviceOutage, Target: "disk0", Start: total * 2 / 5, Dur: total / 10},
			{Kind: fault.LinkDegrade, Target: "lan-victim", Start: total / 2, Dur: total / 4, Factor: 0.25},
		} {
			if _, err := plan.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		inj := fault.NewInjector(plan, db.Clock())
		db.Devices().SetFaultHook(inj)
		vLink.SetFaultHook(inj)

		victim := buildPlaybackOn(t, db, "victim", frames, "disk0", "lan-victim")
		victim.src.SetRetry(fault.DefaultRetry)
		victim.src.SetDropOnFault(true)
		b1 := buildPlaybackOn(t, db, "bystander-1", frames, "disk1", "lan0")
		b2 := buildPlaybackOn(t, db, "bystander-2", frames, "disk2", "lan0")
		all := []*playbackSession{victim, b1, b2}

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

	serialSnap, serialOuts := run(1)
	if serialOuts[0].Err != "" {
		t.Errorf("armed victim died: %v", serialOuts[0].Err)
	}
	for i := 1; i < 3; i++ {
		if serialOuts[i] != (isoOutcome{Shown: frames}) {
			t.Errorf("bystander %d touched by victim's faults: %+v", i, serialOuts[i])
		}
	}
	for rep := 0; rep < 2; rep++ {
		snap, outs := run(4)
		if !reflect.DeepEqual(serialOuts, outs) {
			t.Errorf("EngineWorkers=4 rep %d: outcomes diverged: %+v vs %+v", rep, outs, serialOuts)
		}
		if snap != serialSnap {
			t.Errorf("EngineWorkers=4 rep %d: obs snapshot differs from serial (%d vs %d bytes)",
				rep, len(snap), len(serialSnap))
		}
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
