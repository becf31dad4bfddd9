package core

import (
	"strings"
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/sched"
	"avdb/internal/schema"
)

// TestJukeboxArchivePlayback plays a value stored on the analog videodisc
// jukebox: the session must acquire the (exclusive) jukebox, and the
// first frame pays the disc-swap latency, after which the stream runs at
// rate.
func TestJukeboxArchivePlayback(t *testing.T) {
	db := testDB(t)
	o, err := db.NewObject("SimpleNewscast")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "title", schema.String("Archive Reel")); err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "videoTrack", schema.Media(testClip(60))); err != nil {
		t.Fatal(err)
	}
	seg, err := db.PlaceMediaOnDisc(o.OID(), "videoTrack", "jukebox0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seg.String(), "on jukebox0 disc 2 ") {
		t.Fatalf("placement = %v", seg)
	}

	sess, err := db.Connect("archivist", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.AcquireDevice("jukebox0"); err != nil {
		t.Fatal(err)
	}
	// A second session cannot use the jukebox while we hold it.
	other, err := db.Connect("rival", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.AcquireDevice("jukebox0"); err == nil {
		t.Error("jukebox double-acquired")
	}

	reader, err := activities.NewVideoReader("lvSource", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(reader, sched.Resources{Buffers: 1}); err != nil {
		t.Fatal(err)
	}
	win := activities.NewVideoWindow("win", activity.AtApplication, media.VideoQuality{}, 10*avtime.Second)
	if err := sess.Install(win, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Connect(reader, "out", win, "in", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	if err := sess.BindValue(o.OID(), "videoTrack", reader, "out", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Wait(); err != nil {
		t.Fatal(err)
	}
	if win.FramesShown() != 60 {
		t.Fatalf("frames = %d", win.FramesShown())
	}
	// First frame pays the 6s disc swap; later frames do not.
	arr := win.Arrivals()
	if arr[0] < 6*avtime.Second {
		t.Errorf("first arrival %v did not pay the disc swap", arr[0])
	}
	if late := arr[30] - 30*33333*avtime.Microsecond; late > 100*avtime.Millisecond {
		t.Errorf("steady-state frame late by %v", late)
	}
}
