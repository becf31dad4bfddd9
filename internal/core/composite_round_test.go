package core

import (
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/sched"
	"avdb/internal/storage"
)

// TestCompositeChildrenReadInEngineRound plays one placed clip twice,
// back to back, through a composite-wrapped VideoReader on a pooled
// store.  The reader must read in the engine step its composite was
// stamped with: numbered by the graph's own ticks, the second playback's
// rounds would restart below rounds the engine already closed, so
// nothing it stages would ever be committed — no hits, and a staged log
// that grows with every read.
func TestCompositeChildrenReadInEngineRound(t *testing.T) {
	const frames = 40
	policy := storage.CachePolicy{Capacity: 8, Lookahead: 4}
	db := isoDB(t, 1)
	db.Storage().SetCachePolicy(policy)
	oid := tierNewscast(t, db, "news", frames)
	if _, err := db.PlaceMedia(oid, "videoTrack", "disk0", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	q, err := media.ParseVideoQuality(testQualityStr)
	if err != nil {
		t.Fatal(err)
	}

	play := func(client string) storage.CacheStats {
		sess, err := db.Connect(client, "lan0")
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		source := activity.NewComposite("source", "Source", activity.AtDatabase)
		read, err := activities.NewVideoReader("read", activity.AtDatabase, media.TypeRawVideo30)
		if err != nil {
			t.Fatal(err)
		}
		if err := source.Install(read); err != nil {
			t.Fatal(err)
		}
		if err := source.ExportOut("out", read, "out"); err != nil {
			t.Fatal(err)
		}
		if err := sess.Install(source, sched.Resources{Buffers: 1}); err != nil {
			t.Fatal(err)
		}
		win := activities.NewVideoWindow("win", activity.AtApplication, q, avtime.Second)
		if err := sess.Install(win, sched.Resources{}); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Connect(source, "out", win, "in", q.DataRate()); err != nil {
			t.Fatal(err)
		}
		if err := sess.BindValue(oid, "videoTrack", read, "out", media.MBPerSecond); err != nil {
			t.Fatal(err)
		}
		pb, err := sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pb.Wait(); err != nil {
			t.Fatal(err)
		}
		if win.FramesShown() != frames {
			t.Fatalf("%s: %d frames shown, want %d", client, win.FramesShown(), frames)
		}
		return sess.CacheStats()
	}

	first := play("first")
	second := play("second")
	if first.Hits == 0 || second.Hits < first.Hits {
		t.Errorf("pool hits: first playback %d, second %d; the second must hit at least as often", first.Hits, second.Hits)
	}
	// The last step closed its round before the playback completed.
	if staged := db.Storage().PoolStats().Staged; staged != 0 {
		t.Errorf("%d pool operations still staged after the second playback, want 0", staged)
	}
}
