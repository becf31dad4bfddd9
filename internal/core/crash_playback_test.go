package core

import (
	"sync"
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/sched"
	"avdb/internal/schema"
)

// playbackStream builds a reader→window stream over the stored
// newscast.
func playbackStream(t *testing.T, db *Database, oid schema.OID) (*Session, *activities.VideoReader, *activities.VideoWindow) {
	t.Helper()
	q, _ := media.ParseVideoQuality(testQualityStr)
	sess, err := db.Connect("app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	src, err := activities.NewVideoReader("src", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(src, ResourcesForVideo(q)); err != nil {
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
	return sess, src, win
}

// TestCrashRecoverDuringPlayback crashes the catalog's volatile state in
// the middle of a playback and recovers it afterwards: the running
// stream shows every frame, recovery finds the object again, and a new
// playback of it shows every frame.
func TestCrashRecoverDuringPlayback(t *testing.T) {
	db := testDB(t)
	oid := storeNewscast(t, db, "60 Minutes", 60)
	sess, src, win := playbackStream(t, db, oid)
	defer sess.Close()

	// Crash the volatile state mid-stream.  Media segments and the WAL
	// survive a crash, so the running stream must not notice.
	crashed := make(chan struct{})
	var once sync.Once
	if err := src.Catch(activity.EventEachFrame, func(activity.EventInfo) {
		once.Do(func() {
			db.Crash()
			close(crashed)
		})
	}); err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Wait(); err != nil {
		t.Fatalf("playback died across the crash: %v", err)
	}
	<-crashed
	if got := win.FramesShown(); got != 60 {
		t.Errorf("frames shown %d, want 60", got)
	}

	// Recovery rebuilds the objects from the WAL and re-attaches media
	// from the surviving segments; the stored clip replays in full.
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := db.SelectOne(`select SimpleNewscast where title = "60 Minutes"`)
	if err != nil {
		t.Fatal(err)
	}
	if got != oid {
		t.Errorf("recovered oid = %v, want %v", got, oid)
	}
	sess2, _, win2 := playbackStream(t, db, oid)
	defer sess2.Close()
	pb2, err := sess2.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb2.Wait(); err != nil {
		t.Fatalf("post-recovery playback died: %v", err)
	}
	if got := win2.FramesShown(); got != 60 {
		t.Errorf("post-recovery frames shown %d, want 60", got)
	}
}

func TestStopAndCloseIdempotentConcurrent(t *testing.T) {
	db := testDB(t)
	oid := storeNewscast(t, db, "60 Minutes", 5000)
	sess, _, _ := playbackStream(t, db, oid)

	pb, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Stop and Close racing from many goroutines must be safe, and every
	// call after the first a no-op.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pb.Stop()
			sess.Close()
		}()
	}
	wg.Wait()
	if _, err := pb.Wait(); err != nil {
		t.Errorf("stopped stream reported error: %v", err)
	}
	// Still idempotent after completion.
	pb.Stop()
	sess.Close()
	// A closed session rejects new work with the sentinel.
	if _, err := sess.Start(); err == nil {
		t.Error("closed session started a stream")
	}
}
