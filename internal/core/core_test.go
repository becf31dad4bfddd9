package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/codec"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/query"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/synth"
	"avdb/internal/temporal"
	"avdb/internal/txn"
)

const testQualityStr = "32x24x8@30"

func testDB(t testing.TB) *Database {
	t.Helper()
	db, err := OpenDefault("test", PlatformConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("MediaObject", "", []schema.AttrDef{
		{Name: "title", Kind: schema.KindString},
	}); err != nil {
		t.Fatal(err)
	}
	q, err := media.ParseVideoQuality(testQualityStr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("SimpleNewscast", "MediaObject", []schema.AttrDef{
		{Name: "broadcastSource", Kind: schema.KindString},
		{Name: "whenBroadcast", Kind: schema.KindDate},
		{Name: "videoTrack", Kind: schema.KindMedia, MediaKind: media.KindVideo, VideoQuality: q},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("Newscast", "MediaObject", []schema.AttrDef{
		{Name: "whenBroadcast", Kind: schema.KindDate},
		{Name: "clip", Kind: schema.KindTComp, Tracks: []schema.TrackDef{
			{Name: "video", MediaKind: media.KindVideo},
			{Name: "english", MediaKind: media.KindAudio},
			{Name: "subtitles", MediaKind: media.KindText},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func testClip(frames int) *media.VideoValue {
	return synth.Video(media.TypeRawVideo30, synth.PatternMotion, 32, 24, 8, frames, 3)
}

// storeNewscast inserts a SimpleNewscast with a placed video value.
func storeNewscast(t testing.TB, db *Database, title string, frames int) schema.OID {
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
	if _, err := db.PlaceMedia(o.OID(), "videoTrack", "disk0", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	return o.OID()
}

func TestDatabaseCRUDAndQuery(t *testing.T) {
	db := testDB(t)
	oid := storeNewscast(t, db, "60 Minutes", 30)
	storeNewscast(t, db, "Evening News", 30)

	// The paper's query, verbatim in structure.
	got, err := db.SelectOne(`select SimpleNewscast where (title = "60 Minutes" and whenBroadcast = 1993-04-19)`)
	if err != nil {
		t.Fatal(err)
	}
	if got != oid {
		t.Errorf("SelectOne = %v, want %v", got, oid)
	}
	all, err := db.Select(`select SimpleNewscast`)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("Select all = %d", len(all))
	}
	if _, err := db.SelectOne(`select SimpleNewscast`); err == nil {
		t.Error("SelectOne over two matches succeeded")
	}
	// Attribute reads.
	d, err := db.GetAttr(oid, "title")
	if err != nil || d.Str() != "60 Minutes" {
		t.Errorf("GetAttr = %v, %v", d.Format(), err)
	}
	if _, err := db.GetAttr(oid, "unset"); err == nil {
		t.Error("GetAttr of unset attribute succeeded")
	}
	if _, err := db.GetAttr(9999, "title"); err == nil {
		t.Error("GetAttr of missing object succeeded")
	}
	// Deletion removes the object from queries.
	if err := db.DeleteObject(oid); err != nil {
		t.Fatal(err)
	}
	left, err := db.Select(`select SimpleNewscast`)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Errorf("after delete: %d objects", len(left))
	}
	if err := db.DeleteObject(oid); err == nil {
		t.Error("double delete succeeded")
	}
	if _, err := db.NewObject("Nope"); err == nil {
		t.Error("object of unknown class created")
	}
}

func TestDatabaseIndexedQuery(t *testing.T) {
	db := testDB(t)
	for i := 0; i < 20; i++ {
		title := "Evening News"
		if i%4 == 0 {
			title = "60 Minutes"
		}
		storeNewscast(t, db, title, 2)
	}
	if err := db.CreateIndex("SimpleNewscast", "title", query.HashIndex); err != nil {
		t.Fatal(err)
	}
	oids, err := db.Select(`select SimpleNewscast where title = "60 Minutes"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 5 {
		t.Errorf("indexed query matched %d, want 5", len(oids))
	}
	// Index maintenance through SetAttr.
	if err := db.SetAttr(oids[0], "title", schema.String("Renamed")); err != nil {
		t.Fatal(err)
	}
	oids2, _ := db.Select(`select SimpleNewscast where title = "60 Minutes"`)
	if len(oids2) != 4 {
		t.Errorf("after rename: %d", len(oids2))
	}
}

func TestDurabilityAcrossCrash(t *testing.T) {
	db := testDB(t)
	oid := storeNewscast(t, db, "60 Minutes", 10)
	seg, ok := db.Placement(oid, "videoTrack", "")
	if !ok {
		t.Fatal("placement lost")
	}

	db.Crash()
	if _, ok := db.Object(oid); ok {
		t.Fatal("object survived crash without recovery")
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	o, ok := db.Object(oid)
	if !ok {
		t.Fatal("object not recovered")
	}
	if d, _ := o.Get("title"); d.Str() != "60 Minutes" {
		t.Errorf("title after recovery = %v", d.Format())
	}
	if d, _ := o.Get("whenBroadcast"); d.DateVal().Year() != 1993 {
		t.Error("date not recovered")
	}
	// Media re-attached from its surviving segment.
	d, err := db.GetAttr(oid, "videoTrack")
	if err != nil {
		t.Fatal(err)
	}
	if d.MediaVal() != seg.Value() {
		t.Error("media not re-attached from segment")
	}
	// Queries work after recovery.
	got, err := db.SelectOne(`select SimpleNewscast where title = "60 Minutes"`)
	if err != nil || got != oid {
		t.Errorf("query after recovery = %v, %v", got, err)
	}
}

func TestRecoveryDropsUncommittedAndDeleted(t *testing.T) {
	db := testDB(t)
	keep := storeNewscast(t, db, "Keep", 2)
	gone := storeNewscast(t, db, "Gone", 2)
	if err := db.DeleteObject(gone); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Object(keep); !ok {
		t.Error("kept object lost")
	}
	if _, ok := db.Object(gone); ok {
		t.Error("deleted object resurrected")
	}
}

func TestSessionPaperProgram(t *testing.T) {
	// §4.3, statements 1–6, line for line.
	db := testDB(t)
	storeNewscast(t, db, "60 Minutes", 45)
	q, _ := media.ParseVideoQuality(testQualityStr)

	sess, err := db.Connect("corporate-app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// 1: dbSource = new activity VideoSource for SimpleNewscast.videoTrack
	dbSource, err := activities.NewVideoReader("dbSource", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(dbSource, ResourcesForVideo(q)); err != nil {
		t.Fatal(err)
	}
	// 2: appSink = new activity VideoWindow quality 320x240x8@30
	appSink := activities.NewVideoWindow("appSink", activity.AtApplication, q, 50*avtime.Millisecond)
	if err := sess.Install(appSink, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	// 3: videoStream = new connection from dbSource.out to appSink.in
	if _, err := sess.Connect(dbSource, "out", appSink, "in", q.DataRate()); err != nil {
		t.Fatal(err)
	}
	// 4: myNews = select SimpleNewscast where (...)
	myNews, err := db.SelectOne(`select SimpleNewscast where (title = "60 Minutes" and whenBroadcast = 1993-04-19)`)
	if err != nil {
		t.Fatal(err)
	}
	// 5: bind myNews.videoTrack to dbSource
	if err := sess.BindValue(myNews, "videoTrack", dbSource, "out", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	// 6: start videoStream
	pb, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pb.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if appSink.FramesShown() != 45 {
		t.Errorf("displayed %d frames, want 45", appSink.FramesShown())
	}
	if stats.Ticks != 45 {
		t.Errorf("ticks = %d", stats.Ticks)
	}
	if appSink.Monitor().MissRate() > 0 {
		t.Errorf("deadline misses: %v", appSink.Monitor())
	}
}

func TestSessionAsyncInterface(t *testing.T) {
	db := testDB(t)
	oid := storeNewscast(t, db, "60 Minutes", 300)
	q, _ := media.ParseVideoQuality(testQualityStr)

	sess, err := db.Connect("app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
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

	// Completion notification via Catch, §3.3 "asynchronous notification".
	lastSeen := make(chan struct{}, 1)
	if err := src.Catch(activity.EventLastFrame, func(activity.EventInfo) {
		lastSeen <- struct{}{}
	}); err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Start returned immediately; the client proceeds to other tasks and
	// is informed when the transfer completes.
	select {
	case <-pb.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("stream never completed")
	}
	select {
	case <-lastSeen:
	default:
		t.Error("LAST_FRAME never delivered")
	}
	// A second Start on the same session is allowed after completion.
	if _, err := sess.Start(); err != nil {
		t.Errorf("restart failed: %v", err)
	}
}

func TestSessionStopMidStream(t *testing.T) {
	db := testDB(t)
	oid := storeNewscast(t, db, "60 Minutes", 100000)
	q, _ := media.ParseVideoQuality(testQualityStr)
	sess, err := db.Connect("app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
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
	if err := sess.BindValue(oid, "videoTrack", src, "out", 0); err != nil {
		t.Fatal(err)
	}
	stopAt := 50
	n := 0
	graph := sess.graph
	if err := src.Catch(activity.EventEachFrame, func(activity.EventInfo) {
		n++
		if n == stopAt {
			graph.Stop()
		}
	}); err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pb.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ticks > stopAt+2 {
		t.Errorf("ran %d ticks after stop at %d", stats.Ticks, stopAt)
	}
	// While one stream runs, a second Start fails.
}

func TestSessionAdmissionFailure(t *testing.T) {
	db := testDB(t)
	sess, err := db.Connect("greedy", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	src, err := activities.NewVideoReader("src", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	// Demand more CPU than the whole platform has.
	huge := sched.Resources{CPU: db.Admission().Total().CPU + 1}
	if err := sess.Install(src, huge); !errors.Is(err, sched.ErrAdmission) {
		t.Errorf("oversized install error = %v", err)
	}
}

func TestSessionNetworkAdmissionFailure(t *testing.T) {
	db := testDB(t)
	storeNewscast(t, db, "60 Minutes", 5)
	sess, err := db.Connect("app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	src, err := activities.NewVideoReader("src", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(src, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	q, _ := media.ParseVideoQuality(testQualityStr)
	win := activities.NewVideoWindow("win", activity.AtApplication, q, 0)
	if err := sess.Install(win, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	// The link carries 12 MB/s; demand 100.
	if _, err := sess.Connect(src, "out", win, "in", 100*media.MBPerSecond); !errors.Is(err, netsim.ErrBandwidth) {
		t.Errorf("oversized connection error = %v", err)
	}
	// Cross-location connections need a rate.
	if _, err := sess.Connect(src, "out", win, "in", 0); err == nil {
		t.Error("rateless cross-location connection accepted")
	}
}

func TestBindLocationRule(t *testing.T) {
	db := testDB(t)
	oid := storeNewscast(t, db, "60 Minutes", 5)
	sess, err := db.Connect("app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	appReader, err := activities.NewVideoReader("appReader", activity.AtApplication, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(appReader, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	err = sess.BindValue(oid, "videoTrack", appReader, "out", 0)
	if err == nil || !strings.Contains(err.Error(), "located with the database") {
		t.Errorf("location rule error = %v", err)
	}
}

func TestSessionCloseReleasesEverything(t *testing.T) {
	db := testDB(t)
	oid := storeNewscast(t, db, "60 Minutes", 10)
	q, _ := media.ParseVideoQuality(testQualityStr)
	link, _ := db.Network().Link("lan0")

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
	win := activities.NewVideoWindow("win", activity.AtApplication, q, 0)
	if err := sess.Install(win, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Connect(src, "out", win, "in", q.DataRate()); err != nil {
		t.Fatal(err)
	}
	if err := sess.BindValue(oid, "videoTrack", src, "out", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	if err := sess.AcquireDevice("fx0"); err != nil {
		t.Fatal(err)
	}
	if db.Admission().Used().IsZero() {
		t.Fatal("no resources reserved")
	}
	if link.Reserved() == 0 {
		t.Fatal("no link bandwidth reserved")
	}
	sess.Close()
	sess.Close() // idempotent
	if !db.Admission().Used().IsZero() {
		t.Error("admission grants leaked")
	}
	if link.Reserved() != 0 {
		t.Error("link bandwidth leaked")
	}
	if _, held := db.Devices().Holder("fx0"); held {
		t.Error("device leaked")
	}
	// Closed sessions refuse work.
	if err := sess.Install(win, sched.Resources{}); err == nil {
		t.Error("install on closed session accepted")
	}
	if _, err := sess.Start(); err == nil {
		t.Error("start on closed session accepted")
	}
	if err := sess.AcquireDevice("fx0"); err == nil {
		t.Error("acquire on closed session accepted")
	}
}

func TestDeviceContentionBetweenSessions(t *testing.T) {
	db := testDB(t)
	s1, err := db.Connect("a", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := db.Connect("b", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s1.AcquireDevice("fx0"); err != nil {
		t.Fatal(err)
	}
	if err := s2.AcquireDevice("fx0"); err == nil {
		t.Error("second session acquired a held effects processor")
	}
	s1.Close()
	if err := s2.AcquireDevice("fx0"); err != nil {
		t.Errorf("acquire after release failed: %v", err)
	}
}

func TestSynchronizedNewscastSession(t *testing.T) {
	// The paper's second program: MultiSource/MultiSink with a composite
	// clip over one connection.
	db := testDB(t)
	o, err := db.NewObject("Newscast")
	if err != nil {
		t.Fatal(err)
	}
	clip := buildClip(t, 60)
	if err := db.SetAttr(o.OID(), "title", schema.String("60 Minutes")); err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "clip", schema.TComp(clip)); err != nil {
		t.Fatal(err)
	}

	sess, err := db.Connect("app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	dbSource := activities.NewMultiSource("dbSource", activity.AtDatabase)
	vr, err := activities.NewVideoReader("video", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := activities.NewAudioReader("english", activity.AtDatabase, media.TypeVoiceAudio)
	if err != nil {
		t.Fatal(err)
	}
	if err := dbSource.Install(vr); err != nil {
		t.Fatal(err)
	}
	if err := dbSource.Install(ar); err != nil {
		t.Fatal(err)
	}
	if err := activities.SealMultiSource(dbSource); err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(dbSource, sched.Resources{Buffers: 2}); err != nil {
		t.Fatal(err)
	}

	appSink := activities.NewMultiSink("appSink", activity.AtApplication)
	win := activities.NewVideoWindow("video", activity.AtApplication, media.VideoQuality{}, 50*avtime.Millisecond)
	dac, err := activities.NewAudioSink("english", activity.AtApplication, media.TypeVoiceAudio, media.AudioQualityVoice, 50*avtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := appSink.Install(win); err != nil {
		t.Fatal(err)
	}
	if err := appSink.Install(dac); err != nil {
		t.Fatal(err)
	}
	if err := activities.SealMultiSink(appSink); err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(appSink, sched.Resources{}); err != nil {
		t.Fatal(err)
	}

	if _, err := sess.Connect(dbSource, "out", appSink, "in", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	myNews, err := db.SelectOne(`select Newscast where title = "60 Minutes"`)
	if err != nil {
		t.Fatal(err)
	}
	// Binding a track named after a missing component errors cleanly.
	if err := sess.BindTrack(myNews, "clip", "nope", vr, "out", 0); err == nil {
		t.Error("bind of missing track accepted")
	}
	if err := sess.BindClip(myNews, "clip", dbSource, 0); err != nil {
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
		t.Errorf("video frames = %d, want 60", win.FramesShown())
	}
	if dac.SamplesPlayed() != 16000 {
		t.Errorf("audio samples = %d, want 16000", dac.SamplesPlayed())
	}
}

// buildClip assembles the Newscast.clip temporal composite: 2s of video,
// a 2s English narration and subtitles.
func buildClip(t *testing.T, frames int) *temporal.Composite {
	t.Helper()
	clip := temporal.NewComposite("clip")
	if err := clip.Add("video", testClip(frames)); err != nil {
		t.Fatal(err)
	}
	eng, err := synth.Speech(media.AudioQualityVoice, float64(frames)/30, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := clip.Add("english", eng); err != nil {
		t.Fatal(err)
	}
	subs, err := synth.Subtitles([]string{"good evening", "tonight"}, int64(frames)*1000/60)
	if err != nil {
		t.Fatal(err)
	}
	if err := clip.Add("subtitles", subs); err != nil {
		t.Fatal(err)
	}
	return clip
}

func TestImportVideoRepresentationHints(t *testing.T) {
	clip := testClip(10)
	cases := []struct {
		hints RepresentationHints
		typ   *media.Type
	}{
		{RepresentationHints{Raw: true}, media.TypeRawVideo30},
		{RepresentationHints{Scalable: true}, codec.TypeScalableVideo},
		{RepresentationHints{RandomAccess: true}, codec.TypeJPEGVideo},
		{RepresentationHints{Archive: true}, codec.TypeMPEGVideo},
		{RepresentationHints{}, codec.TypeMPEGVideo},
	}
	db := testDB(t)
	for _, c := range cases {
		v, err := db.ImportVideo(clip, c.hints)
		if err != nil {
			t.Fatal(err)
		}
		if v.Type() != c.typ {
			t.Errorf("hints %+v gave %s, want %s", c.hints, v.Type().Name, c.typ.Name)
		}
	}
}

func TestRetrieveAtQualityScalableVsTranscode(t *testing.T) {
	clip := synth.Video(media.TypeRawVideo30, synth.PatternMotion, 64, 48, 8, 10, 5)
	scal, err := codec.ScalableCodec.Encode(clip)
	if err != nil {
		t.Fatal(err)
	}
	mpeg, err := codec.MPEG.Encode(clip)
	if err != nil {
		t.Fatal(err)
	}
	low := media.VideoQuality{Width: 16, Height: 12, Depth: 8, FPS: 30}

	got, info, err := RetrieveAtQuality(scal, low)
	if err != nil {
		t.Fatal(err)
	}
	if info.Method != "layer-drop" {
		t.Errorf("scalable method = %s", info.Method)
	}
	if got.(*codec.EncodedVideo).Layers() != 1 {
		t.Error("layer count wrong")
	}
	if info.BytesProcessed >= scal.Size() {
		t.Errorf("layer-drop touched %d of %d bytes", info.BytesProcessed, scal.Size())
	}

	_, tinfo, err := RetrieveAtQuality(mpeg, low)
	if err != nil {
		t.Fatal(err)
	}
	if tinfo.Method != "transcode" {
		t.Errorf("non-scalable method = %s", tinfo.Method)
	}
	if tinfo.BytesProcessed <= info.BytesProcessed {
		t.Errorf("transcode (%d) not costlier than layer-drop (%d)",
			tinfo.BytesProcessed, info.BytesProcessed)
	}

	// Full-quality request on a scalable value is direct.
	full := media.VideoQuality{Width: 64, Height: 48, Depth: 8, FPS: 30}
	_, dinfo, err := RetrieveAtQuality(scal, full)
	if err != nil || dinfo.Method != "direct" {
		t.Errorf("full-quality method = %s, %v", dinfo.Method, err)
	}
	// Raw values resize.
	_, rinfo, err := RetrieveAtQuality(clip, low)
	if err != nil || rinfo.Method != "transcode" {
		t.Errorf("raw method = %s, %v", rinfo.Method, err)
	}
	if _, _, err := RetrieveAtQuality(clip, media.VideoQuality{}); err == nil {
		t.Error("invalid quality accepted")
	}
	// Mid quality uses two layers.
	mid := media.VideoQuality{Width: 32, Height: 24, Depth: 8, FPS: 30}
	v2, _, err := RetrieveAtQuality(scal, mid)
	if err != nil || v2.(*codec.EncodedVideo).Layers() != 2 {
		t.Errorf("mid-quality layers = %v, %v", v2, err)
	}
}

func TestResourceEstimates(t *testing.T) {
	q, _ := media.ParseVideoQuality("640x480x8@30")
	r := ResourcesForVideo(q)
	if r.Buffers != 1 || r.CPU != q.DataRate() || r.Bus != q.DataRate() {
		t.Errorf("ResourcesForVideo = %v", r)
	}
}

func TestVersioningWorkflow(t *testing.T) {
	db := testDB(t)
	oid := storeNewscast(t, db, "60 Minutes", 10)
	rough := testClip(10)
	finalCut := testClip(8)
	if _, err := db.Versions().Checkin(oid, "videoTrack", rough, "rough cut"); err != nil {
		t.Fatal(err)
	}
	n, err := db.Versions().Checkin(oid, "videoTrack", finalCut, "final cut")
	if err != nil || n != 2 {
		t.Fatal(err)
	}
	h := db.Versions().History(oid, "videoTrack")
	if len(h) != 2 || h[1].Value != media.Value(finalCut) {
		t.Error("current version wrong")
	}
	if len(h) != 2 {
		t.Error("history wrong")
	}
	_ = txn.Version{} // the version type is part of the public workflow
}

func TestConnectUnknownLink(t *testing.T) {
	db := testDB(t)
	if _, err := db.Connect("app", "wan9"); err == nil {
		t.Error("connect over missing link succeeded")
	}
}

func TestPlaceMediaErrors(t *testing.T) {
	db := testDB(t)
	oid := storeNewscast(t, db, "60 Minutes", 5)
	if _, err := db.PlaceMedia(oid, "title", "disk0", 0); err == nil {
		t.Error("placing a string attribute succeeded")
	}
	if _, err := db.PlaceMedia(9999, "videoTrack", "disk0", 0); err == nil {
		t.Error("placing a missing object succeeded")
	}
	// Auto placement.
	if _, err := db.PlaceMedia(oid, "videoTrack", "", media.MBPerSecond); err != nil {
		t.Errorf("auto placement failed: %v", err)
	}
}

func TestAccessorsAndPlaceTrack(t *testing.T) {
	db := testDB(t)
	if db.Name() != "test" || db.Storage() == nil || db.Clock() == nil || db.Schema() == nil {
		t.Error("accessors wrong")
	}
	o, err := db.NewObject("Newscast")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "title", schema.String("Tracked")); err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "clip", schema.TComp(buildClip(t, 30))); err != nil {
		t.Fatal(err)
	}
	seg, err := db.PlaceTrack(o.OID(), "clip", "video", "disk1", media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seg.String(), "on disk1 ") {
		t.Errorf("track placed as %v", seg)
	}
	if got, ok := db.Placement(o.OID(), "clip", "video"); !ok || got != seg {
		t.Error("track placement lost")
	}
	// Auto placement for tracks.
	if _, err := db.PlaceTrack(o.OID(), "clip", "english", "", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	// Errors.
	if _, err := db.PlaceTrack(o.OID(), "clip", "nope", "disk0", 0); err == nil {
		t.Error("missing track placed")
	}
	if _, err := db.PlaceTrack(o.OID(), "title", "video", "disk0", 0); err == nil {
		t.Error("non-tcomp attribute placed as track")
	}
	if _, err := db.PlaceTrack(9999, "clip", "video", "disk0", 0); err == nil {
		t.Error("missing object placed")
	}
	// Bound readers pick up the track placement's storage stream.
	sess, err := db.Connect("app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.ID() == "" || sess.link == nil {
		t.Error("session accessors wrong")
	}
	vr, err := activities.NewVideoReader("video", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(vr, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	win := activities.NewVideoWindow("win", activity.AtApplication, media.VideoQuality{}, avtime.Second)
	if err := sess.Install(win, sched.Resources{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Connect(vr, "out", win, "in", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	if err := sess.BindTrack(o.OID(), "clip", "video", vr, "out", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Wait(); err != nil {
		t.Fatal(err)
	}
	if win.FramesShown() != 30 {
		t.Errorf("frames = %d", win.FramesShown())
	}
	// The very first frame paid the disk seek through the attached stream.
	if win.Arrivals()[0] == 0 {
		t.Error("placement stream not attached: no read latency")
	}
}

func TestBindErrors(t *testing.T) {
	db := testDB(t)
	oid := storeNewscast(t, db, "60 Minutes", 3)
	sess, err := db.Connect("app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	vr, err := activities.NewVideoReader("r", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	// Binding a scalar attribute fails.
	if err := sess.BindValue(oid, "title", vr, "out", 0); err == nil {
		t.Error("scalar bound as media")
	}
	// Binding a missing attribute fails.
	if err := sess.BindValue(oid, "nope", vr, "out", 0); err == nil {
		t.Error("missing attribute bound")
	}
	// BindTrack on a media (non-tcomp) attribute fails.
	if err := sess.BindTrack(oid, "videoTrack", "x", vr, "out", 0); err == nil {
		t.Error("media attribute bound as track")
	}
	// BindClip location rule: children at the application are rejected.
	comp := activities.NewMultiSource("appcomp", activity.AtApplication)
	appReader, err := activities.NewVideoReader("video", activity.AtApplication, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Install(appReader); err != nil {
		t.Fatal(err)
	}
	o, err := db.NewObject("Newscast")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "clip", schema.TComp(buildClip(t, 30))); err != nil {
		t.Fatal(err)
	}
	if err := sess.BindClip(o.OID(), "clip", comp, 0); err == nil {
		t.Error("application-located composite bound to database clip")
	}
	if err := sess.BindClip(oid, "videoTrack", comp, 0); err == nil {
		t.Error("BindClip on non-tcomp accepted")
	}
}
