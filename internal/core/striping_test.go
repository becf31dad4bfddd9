package core

import (
	"strings"
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/storage"
)

// stripedDB opens a two-disk database with one client link under the
// stripe policy given as Config.Striping.
func stripedDB(t *testing.T, policy storage.StripePolicy) *Database {
	t.Helper()
	db, err := Open(Config{
		Name:      "striped",
		Resources: sched.Resources{Buffers: 64, CPU: 100 * media.MBPerSecond, Bus: 100 * media.MBPerSecond},
		Striping:  policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"disk0", "disk1"} {
		if err := db.Devices().Register(device.NewDisk(id, 100_000_000, 20*media.MBPerSecond, 10*avtime.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Network().AddLink(netsim.NewLink("lan0", 12*media.MBPerSecond, 2*avtime.Millisecond, avtime.Millisecond, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("MediaObject", "", []schema.AttrDef{
		{Name: "videoTrack", Kind: schema.KindMedia, MediaKind: media.KindVideo},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestConfigStripingReachesStore pins the Config -> store plumbing: the
// policy set at Open governs automatic placement.
func TestConfigStripingReachesStore(t *testing.T) {
	db := stripedDB(t, storage.StripePolicy{Width: 2, Seeks: true})
	if got := db.mediaSt.Striping(); got.Width != 2 || !got.Seeks {
		t.Fatalf("store policy = %+v, want Width 2 + Seeks", got)
	}
	o, err := db.NewObject("MediaObject")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "videoTrack", schema.Media(testClip(10))); err != nil {
		t.Fatal(err)
	}
	// An automatic placement under Width 2 stripes over both disks.
	seg, err := db.PlaceMedia(o.OID(), "videoTrack", "", media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seg.String(), "striped over [disk0 disk1]") {
		t.Errorf("auto placement under Width 2 gave %v", seg)
	}
}

// TestSessionStripedPlayback runs §4.3's program over a striped
// placement with SCAN-EDF rounds: PlaceMediaStriped, Install,
// bind, play, and verify the round scheduler carried the reads and the
// stripe reservations settle at close.
func TestSessionStripedPlayback(t *testing.T) {
	db := stripedDB(t, storage.StripePolicy{Seeks: true, Rounds: true})
	o, err := db.NewObject("MediaObject")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "videoTrack", schema.Media(testClip(40))); err != nil {
		t.Fatal(err)
	}
	seg, err := db.PlaceMediaStriped(o.OID(), "videoTrack", media.MBPerSecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seg.String(), "striped over [disk0 disk1]") {
		t.Fatalf("striped placement is %v", seg)
	}

	sess, err := db.Connect("striped-app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := media.ParseVideoQuality(testQualityStr)
	reader, err := activities.NewVideoReader("dbSource", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(reader, ResourcesForVideo(q)); err != nil {
		t.Fatal(err)
	}
	win := activities.NewVideoWindow("appSink", activity.AtApplication, q, 50*avtime.Millisecond)
	if err := sess.Install(win, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Connect(reader, "out", win, "in", q.DataRate()); err != nil {
		t.Fatal(err)
	}
	if err := sess.BindValue(o.OID(), "videoTrack", reader, "out", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	// The bound stream reserved a half-rate share on each stripe disk.
	for _, id := range []string{"disk0", "disk1"} {
		d, _ := db.Devices().Get(id)
		if got := d.(*device.Disk).ReservedBandwidth(); got != media.MBPerSecond/2 {
			t.Errorf("disk %s reserves %v, want %v", id, got, media.MBPerSecond/2)
		}
	}
	pb, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Wait(); err != nil {
		t.Fatal(err)
	}
	if win.FramesShown() != 40 {
		t.Errorf("displayed %d frames, want 40", win.FramesShown())
	}
	io := db.mediaSt.IOStats()
	if io.Scheduled == 0 || io.Rounds == 0 {
		t.Errorf("round scheduler idle during striped playback: %+v", io)
	}
	sess.Close()
	for _, id := range []string{"disk0", "disk1"} {
		d, _ := db.Devices().Get(id)
		if got := d.(*device.Disk).ReservedBandwidth(); got != 0 {
			t.Errorf("disk %s still reserves %v after close", id, got)
		}
	}
}
