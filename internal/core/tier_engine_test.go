package core

// tier_engine_test.go exercises the storage hierarchy under the engine:
// a hot clip replicated at an access, an archival clip promoted at one,
// and a cold clip played from an unloaded disc, all while the engine
// steps them beside a bystander — byte-identical across repeats.

import (
	"reflect"
	"testing"
	"time"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/storage"
)

// buildTierPlayback wires a playback session over a clip placed by the
// caller; a BindValue failure is returned, not fatal, so tests can
// assert on it.
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

// TestEngineTierMovementDeterminism is the hierarchy under the engine.
// Wave 1 warms the system: one jukebox session plays the archival clip
// (first popularity access, platter loaded), and a hot-clip session
// binds and closes (its first access).  Wave 2 starts five sessions at
// once:
//
//   - two hot-clip sessions on a striped value that replicates at the
//     first one's access;
//   - a second jukebox session whose access crosses the promotion
//     threshold, so it plays from the disk tier;
//   - a cold session whose clip sits on an unloaded disc, paying the
//     platter swap;
//   - a bystander on disk3.
//
// Every session plays every frame, and the whole ensemble — outcomes,
// tier state and observability bytes — is identical on a repeat run.
func TestEngineTierMovementDeterminism(t *testing.T) {
	const frames = 30

	type tierOutcome struct {
		Shown   int
		Err     string
		BindErr string
	}

	run := func() (string, []tierOutcome, []storage.TierInfo) {
		db := isoDB(t, 4)
		col := db.EnableObservability()
		db.Storage().SetTierPolicy(storage.TierPolicy{
			PromoteAt: 2,
			Width:     4,
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

		// Wave 2.  Binding opens the streams, so tier movement happens
		// here: hot-a's access replicates the hot clip and promo's
		// promotes the archival one.
		clients := []struct {
			name string
			oid  schema.OID
		}{{"hot-a", hotOID}, {"hot-b", hotOID}, {"promo", archOID}, {"cold", coldOID}, {"bystander", byOID}}
		outs := make([]tierOutcome, len(clients))
		all := make([]*playbackSession, len(clients))
		for i, c := range clients {
			if all[i], err = buildTierPlayback(t, db, c.name, c.oid); err != nil {
				outs[i].BindErr = err.Error()
			}
		}
		db.Engine().Pause()
		pbs := make([]*Playback, len(all))
		for i, ps := range all {
			if ps == nil {
				continue
			}
			if pbs[i], err = ps.sess.Start(); err != nil {
				t.Fatal(err)
			}
		}
		db.Engine().Resume()
		for i, pb := range pbs {
			if pb == nil {
				continue
			}
			if _, err := pb.Wait(); err != nil {
				outs[i].Err = err.Error()
			}
			outs[i].Shown = all[i].win.FramesShown()
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

	snap, outs, tiers := run()
	for i, o := range outs {
		if o != (tierOutcome{Shown: frames}) {
			t.Errorf("session %d: %+v, want %d frames and no error", i, o, frames)
		}
	}
	if tiers[0].Copies != 2 {
		t.Errorf("hot clip copies = %d, want 2 (replicated at second access)", tiers[0].Copies)
	}
	if !tiers[1].Promoted {
		t.Errorf("archival clip not promoted at its second access: %+v", tiers[1])
	}
	if tiers[2].Promoted {
		t.Errorf("cold clip promoted at its first access: %+v", tiers[2])
	}

	snap2, outs2, tiers2 := run()
	if !reflect.DeepEqual(outs, outs2) {
		t.Errorf("outcomes differ across repeats: %+v vs %+v", outs2, outs)
	}
	if !reflect.DeepEqual(tiers, tiers2) {
		t.Errorf("tier state differs across repeats: %+v vs %+v", tiers2, tiers)
	}
	if snap2 != snap {
		t.Errorf("obs snapshots differ across repeats (%d vs %d bytes)", len(snap2), len(snap))
	}
}
