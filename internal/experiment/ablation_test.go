package experiment

import (
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/core"
	"avdb/internal/media"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/synth"
)

// The post-paper ablations (tenancy, zipf, jukebox, overload, chaos and
// observe; stripe lives in internal/storage) have no renderer and no
// golden.  Each claim is a property test in this package, driven
// through core's exported API, so a scheduler, pool or overload change
// fails one only when the claim itself breaks.

// ablationQuality is the geometry of every ablation clip.
const ablationQuality = "32x24x8@30"

func ablationClip(frames int) *media.VideoValue {
	return synth.Video(media.TypeRawVideo30, synth.PatternMotion, 32, 24, 8, frames, 3)
}

// defineClip registers the Clip class: one video attribute, videoTrack.
func defineClip(t testing.TB, db *core.Database) {
	t.Helper()
	if _, err := db.DefineClass("Clip", "", []schema.AttrDef{
		{Name: "videoTrack", Kind: schema.KindMedia, MediaKind: media.KindVideo},
	}); err != nil {
		t.Fatal(err)
	}
}

// newClip stores clip as the videoTrack of a new Clip object, unplaced.
func newClip(t testing.TB, db *core.Database, clip *media.VideoValue) schema.OID {
	t.Helper()
	o, err := db.NewObject("Clip")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "videoTrack", schema.Media(clip)); err != nil {
		t.Fatal(err)
	}
	return o.OID()
}

// stream is one VideoReader → VideoWindow session, ready to Start.
type stream struct {
	sess *core.Session
	src  *activities.VideoReader
	win  *activities.VideoWindow
}

// bindStream wires a reader → window session over the given link to
// the videoTrack of an object that already holds a placed clip.
func bindStream(t testing.TB, db *core.Database, client, link string, oid schema.OID) *stream {
	t.Helper()
	q, err := media.ParseVideoQuality(ablationQuality)
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
	return &stream{sess: sess, src: src, win: win}
}
