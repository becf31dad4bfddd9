package core

// tier_fault_test.go exercises the storage hierarchy under the engine:
// a disk outage that lands mid-playback on a replicated hot clip (reads
// fail over to the surviving copy, no frames lost), the same outage
// breaking a promotion attempt (the copy rolls back, the value stays
// archival and keeps playing from the jukebox), and a platter jam that
// kills a swap-dependent open outright — all byte-identical across
// repeats, with bystanders untouched.

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/fault"
	"avdb/internal/media"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/storage"
)

// buildTierPlayback wires a playback session over a clip placed by the
// caller; a BindValue failure (e.g. a jammed platter swap) is returned,
// not fatal, so tests can assert on it.
func buildTierPlayback(t testing.TB, db *Database, client string, oid schema.OID) (*playbackSession, error) {
	t.Helper()
	q, err := media.ParseVideoQuality(testQualityStr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := db.Connect(client, "lan0")
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
		sess.Close()
		return nil, err
	}
	return &playbackSession{sess: sess, src: src, win: win}, nil
}

// tierNewscast stores a clip without placing it, leaving placement to
// the caller.
func tierNewscast(t testing.TB, db *Database, title string, frames int) schema.OID {
	t.Helper()
	o, err := db.NewObject("SimpleNewscast")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "title", schema.String(title)); err != nil {
		t.Fatal(err)
	}
	when := time.Date(1993, 4, 19, 0, 0, 0, 0, time.UTC)
	if err := db.SetAttr(o.OID(), "whenBroadcast", schema.Date(when)); err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "videoTrack", schema.Media(testClip(frames))); err != nil {
		t.Fatal(err)
	}
	return o.OID()
}

// TestEngineTierFaultIsolation is the hierarchy's fault story under the
// engine, following TestEngineDiskCrashIsolation's structure.  Wave 1
// warms the system: one jukebox session plays the archival clip (first
// popularity access, platter loaded).  Then disk0 goes down and the
// jukebox carousel jams, and wave 2 starts five sessions at once:
//
//   - two hot-clip sessions on a striped value that replicates at the
//     second access — their disk0-homed chunks fail over to the replica,
//     so they finish every frame with no loss and no error;
//   - a second jukebox session whose access crosses the promotion
//     threshold mid-outage — the promotion's write probe hits dead
//     disk0, rolls back, and the session keeps playing from the platter;
//   - a jam victim whose clip sits on an unloaded disc — its open dies
//     on the jammed swap;
//   - a bystander on disk3, untouched.
//
// The whole ensemble is byte-identical on a repeat run, and the
// bystander matches a fault-free run.
func TestEngineTierFaultIsolation(t *testing.T) {
	const frames = 30

	type tierOutcome struct {
		Shown   int
		Lost    int
		Err     string
		BindErr string
	}

	run := func(inject bool) (string, []tierOutcome, []storage.TierInfo) {
		db := isoDB(t, 4)
		col := db.EnableObservability()
		db.Storage().SetTierPolicy(storage.TierPolicy{
			PromoteAt: 2,
			Width:     4, // promotion wants every disk, including dead disk0
			Replicas:  storage.ReplicaPolicy{Copies: 2, PromoteAt: 2},
		})
		db.Storage().SetCachePolicy(storage.CachePolicy{Capacity: 8, Lookahead: 4})

		hotOID := tierNewscast(t, db, "hot", frames)
		if _, err := db.PlaceMediaStriped(hotOID, "videoTrack", media.MBPerSecond, 2); err != nil {
			t.Fatal(err)
		}
		archOID := tierNewscast(t, db, "archive", frames)
		if _, err := db.PlaceMediaOnDisc(archOID, "videoTrack", "jukebox0", 2); err != nil {
			t.Fatal(err)
		}
		coldOID := tierNewscast(t, db, "cold", frames)
		if _, err := db.PlaceMediaOnDisc(coldOID, "videoTrack", "jukebox0", 3); err != nil {
			t.Fatal(err)
		}
		byOID := tierNewscast(t, db, "bystander", frames)
		if _, err := db.PlaceMedia(byOID, "videoTrack", "disk3", media.MBPerSecond); err != nil {
			t.Fatal(err)
		}

		// Wave 1: play the archival clip once — first popularity access,
		// and it leaves disc 2 in the platter for wave 2.
		warm, err := buildTierPlayback(t, db, "warmup", archOID)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := warm.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pb.Wait(); err != nil {
			t.Fatal(err)
		}
		warm.sess.Close()
		// First popularity access for the hot clip too, so wave 2's first
		// session crosses the replication threshold at bind time — before
		// either hot stream opens and snapshots the replica set.
		warmHot, err := buildTierPlayback(t, db, "warmup-hot", hotOID)
		if err != nil {
			t.Fatal(err)
		}
		warmHot.sess.Close()

		if inject {
			now := db.Clock().Now()
			plan := fault.NewPlan(7)
			for _, f := range []fault.Fault{
				{Kind: fault.DeviceOutage, Target: "disk0", Start: now, Dur: avtime.WorldTime(1 << 40)},
				{Kind: fault.DiscSwapFail, Target: "jukebox0", Start: now, Dur: avtime.WorldTime(1 << 40), Probability: 1},
			} {
				if _, err := plan.Add(f); err != nil {
					t.Fatal(err)
				}
			}
			db.Devices().SetFaultHook(fault.NewInjector(plan, db.Clock()))
		}

		// Wave 2.  Binding opens the streams, so tier movement happens
		// here: hot-b's access replicates the hot clip, promo's access
		// attempts (and under the outage fails) the promotion, and the
		// jam victim's bind dies on the swap.
		outs := make([]tierOutcome, 5)
		hotA, err := buildTierPlayback(t, db, "hot-a", hotOID)
		if err != nil {
			t.Fatal(err)
		}
		hotB, err := buildTierPlayback(t, db, "hot-b", hotOID)
		if err != nil {
			t.Fatal(err)
		}
		promo, err := buildTierPlayback(t, db, "promo", archOID)
		if err != nil {
			t.Fatal(err)
		}
		jam, jamErr := buildTierPlayback(t, db, "jam-victim", coldOID)
		if jamErr != nil {
			outs[3].BindErr = jamErr.Error()
		}
		by, err := buildTierPlayback(t, db, "bystander", byOID)
		if err != nil {
			t.Fatal(err)
		}

		all := []*playbackSession{hotA, hotB, promo, jam, by}
		for _, ps := range all {
			if ps != nil {
				ps.src.SetDropOnFault(true)
			}
		}
		db.Engine().Pause()
		var pbs []*Playback
		var idx []int
		for i, ps := range all {
			if ps == nil {
				continue
			}
			pb, err := ps.sess.Start()
			if err != nil {
				t.Fatal(err)
			}
			pbs = append(pbs, pb)
			idx = append(idx, i)
		}
		db.Engine().Resume()
		for k, pb := range pbs {
			i := idx[k]
			_, err := pb.Wait()
			outs[i] = tierOutcome{Shown: all[i].win.FramesShown(), Lost: all[i].src.FramesLost(), BindErr: outs[i].BindErr}
			if err != nil {
				outs[i].Err = err.Error()
			}
		}
		for _, ps := range all {
			if ps != nil {
				ps.sess.Close()
			}
		}
		tiers := db.Storage().TierInfo(db.Clock().Now())
		js, err := col.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, outs, tiers
	}

	snap, outs, tiers := run(true)

	// Hot sessions rode the replica through the outage: all frames, no
	// loss, no error.
	for _, i := range []int{0, 1} {
		if outs[i].Err != "" || outs[i].Shown != frames || outs[i].Lost != 0 {
			t.Errorf("hot session %d under outage: %+v, want %d/0 frames via failover", i, outs[i], frames)
		}
	}
	// The promotion rolled back, but the archival copy kept playing.
	if outs[2].Err != "" || outs[2].Shown != frames {
		t.Errorf("promo session: %+v, want full playback from the jukebox", outs[2])
	}
	if tiers[1].Seg == 0 || tiers[1].Promoted {
		t.Errorf("archival value promoted through a dead disk: %+v", tiers[1])
	}
	if tiers[0].Copies != 2 {
		t.Errorf("hot clip copies = %d, want 2 (replicated at second access)", tiers[0].Copies)
	}
	// The jam victim never got a stream.
	if outs[3].BindErr == "" {
		t.Error("jam victim bound a stream through a jammed carousel")
	} else if !strings.Contains(outs[3].BindErr, device.ErrTransientRead.Error()) {
		t.Errorf("jam victim error %q does not mention the swap fault", outs[3].BindErr)
	}
	if outs[4].Err != "" || outs[4].Shown != frames || outs[4].Lost != 0 {
		t.Errorf("bystander under faults: %+v, want %d/0 frames", outs[4], frames)
	}

	// Deterministic: the same outcomes, tier state and observability
	// bytes on a repeat run.
	snap2, outs2, tiers2 := run(true)
	if !reflect.DeepEqual(outs, outs2) {
		t.Errorf("outcomes differ across repeats: %+v vs %+v", outs2, outs)
	}
	if !reflect.DeepEqual(tiers, tiers2) {
		t.Errorf("tier state differs across repeats: %+v vs %+v", tiers2, tiers)
	}
	if snap2 != snap {
		t.Errorf("obs snapshots differ across repeats (%d vs %d bytes)", len(snap2), len(snap))
	}

	// The bystander matches a fault-free run; the promotion goes through
	// when nothing is broken.
	_, cleanOuts, cleanTiers := run(false)
	if outs[4] != cleanOuts[4] {
		t.Errorf("bystander perturbed by tier faults: %+v vs clean %+v", outs[4], cleanOuts[4])
	}
	if !cleanTiers[1].Promoted {
		t.Errorf("fault-free promotion did not happen: %+v", cleanTiers[1])
	}
}
