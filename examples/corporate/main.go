// Corporate AV database — the paper's Scenario I.
//
// A software producer's video collection: promotional clips, project
// presentations and archived broadcasts managed by one AV database.
// The example exercises the database the way the scenario describes:
//
//  1. a catalog of Newscast objects with temporally composed clips
//     (video + bilingual narration + subtitles), queried by attribute;
//
//  2. synchronized playback of a bilingual newscast through a
//     MultiSource → MultiSink composite stream (§4.3's second program);
//
//  3. non-linear editing: mixing two clips in real time on the shared
//     video-effects processor, with the values placed on separate disks
//     so both streams can run simultaneously (§3.3 "data placement"),
//     and recording the mix back into the database;
//
//  4. version control: the edit is checked in as a new version of the
//     promotional video;
//
//  5. hypermedia: the promo links to the broadcast it cites;
//
//  6. archival: the master is moved to the analog videodisc jukebox.
//
//     go run ./examples/corporate
package main

import (
	"fmt"
	"log"
	"time"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/codec"
	"avdb/internal/core"
	"avdb/internal/media"
	"avdb/internal/query"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/synth"
	"avdb/internal/temporal"
)

const (
	w, h, fps = 64, 48, 30
	seconds   = 2
	frames    = seconds * fps
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db, err := core.OpenDefault("corporate", core.PlatformConfig{Seed: 1993})
	if err != nil {
		return err
	}
	if err := defineCatalog(db); err != nil {
		return err
	}
	oid, err := loadArchive(db)
	if err != nil {
		return err
	}
	if err := bilingualPlayback(db, oid); err != nil {
		return err
	}
	if err := timelines(db, oid); err != nil {
		return err
	}
	promo, err := editAndRecord(db)
	if err != nil {
		return err
	}
	if err := linkPresentation(db, promo, oid); err != nil {
		return err
	}
	return archiveToJukebox(db, oid)
}

// defineCatalog registers the Newscast class of §4.1 and indexes it.
func defineCatalog(db *core.Database) error {
	if _, err := db.DefineClass("MediaObject", "", []schema.AttrDef{
		{Name: "title", Kind: schema.KindString},
		{Name: "keywords", Kind: schema.KindString},
	}); err != nil {
		return err
	}
	if _, err := db.DefineClass("Newscast", "MediaObject", []schema.AttrDef{
		{Name: "broadcastSource", Kind: schema.KindString},
		{Name: "whenBroadcast", Kind: schema.KindDate},
		{Name: "clip", Kind: schema.KindTComp, Tracks: []schema.TrackDef{
			{Name: "videoTrack", MediaKind: media.KindVideo},
			{Name: "englishTrack", MediaKind: media.KindAudio},
			{Name: "frenchTrack", MediaKind: media.KindAudio},
			{Name: "subtitleTrack", MediaKind: media.KindText},
		}},
	}); err != nil {
		return err
	}
	if _, err := db.DefineClass("Promo", "MediaObject", []schema.AttrDef{
		{Name: "product", Kind: schema.KindString},
		{Name: "videoTrack", Kind: schema.KindMedia, MediaKind: media.KindVideo},
	}); err != nil {
		return err
	}
	if err := db.CreateIndex("Newscast", "title", query.HashIndex); err != nil {
		return err
	}
	return db.CreateIndex("Newscast", "whenBroadcast", query.BTreeIndex)
}

// loadArchive stores a week of captured broadcasts and returns the
// reference of the one we will play back.
func loadArchive(db *core.Database) (schema.OID, error) {
	var target schema.OID
	for day := 19; day <= 23; day++ {
		clip := temporal.NewComposite("clip")
		if err := clip.Add("videoTrack",
			synth.Video(media.TypeRawVideo30, synth.PatternMotion, w, h, 8, frames, int64(day))); err != nil {
			return 0, err
		}
		english, err := synth.Speech(media.AudioQualityVoice, seconds, int64(day))
		if err != nil {
			return 0, err
		}
		if err := clip.Add("englishTrack", english); err != nil {
			return 0, err
		}
		french, err := synth.Speech(media.AudioQualityVoice, seconds, int64(day)+100)
		if err != nil {
			return 0, err
		}
		if err := clip.Add("frenchTrack", french); err != nil {
			return 0, err
		}
		subs, err := synth.Subtitles([]string{"good evening", "goodnight"}, seconds*500)
		if err != nil {
			return 0, err
		}
		if err := clip.Add("subtitleTrack", subs); err != nil {
			return 0, err
		}

		o, err := db.NewObject("Newscast")
		if err != nil {
			return 0, err
		}
		for attr, d := range map[string]schema.Datum{
			"title":           schema.String("60 Minutes"),
			"broadcastSource": schema.String("CBS"),
			"keywords":        schema.String("weekly news magazine"),
			"whenBroadcast":   schema.Date(time.Date(1993, 4, day, 20, 0, 0, 0, time.UTC)),
			"clip":            schema.TComp(clip),
		} {
			if err := db.SetAttr(o.OID(), attr, d); err != nil {
				return 0, err
			}
		}
		if day == 19 {
			target = o.OID()
		}
	}
	n, err := db.Select(`select Newscast where whenBroadcast >= 1993-04-19 and whenBroadcast <= 1993-04-23`)
	if err != nil {
		return 0, err
	}
	fmt.Printf("archive loaded: %d newscasts in the catalog\n", len(n))
	return target, nil
}

// bilingualPlayback runs §4.3's second program: a MultiSource/MultiSink
// pair keeping video, English narration and subtitles synchronized over
// one composite connection.
func bilingualPlayback(db *core.Database, _ schema.OID) error {
	sess, err := db.Connect("newsroom-app", "lan0")
	if err != nil {
		return err
	}
	defer sess.Close()

	// dbSource = new activity MultiSource
	//   install (new activity VideoSource for Newscast.clip.videoTrack)
	//   install (new activity AudioSource for Newscast.clip.englishTrack)
	dbSource := activities.NewMultiSource("dbSource", activity.AtDatabase)
	vr, err := activities.NewVideoReader("videoTrack", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		return err
	}
	vr.SetLatency(sched.NewLatency(10*avtime.Millisecond, 5*avtime.Millisecond, 51))
	ar, err := activities.NewAudioReader("englishTrack", activity.AtDatabase, media.TypeVoiceAudio)
	if err != nil {
		return err
	}
	ar.SetLatency(sched.NewLatency(2*avtime.Millisecond, avtime.Millisecond, 52))
	sr := activities.NewSubtitleReader("subtitleTrack", activity.AtDatabase)
	for _, a := range []activity.Activity{vr, ar, sr} {
		if err := dbSource.Install(a); err != nil {
			return err
		}
		// Cue each track to world time 0, its first element.
		if err := a.Cue(0); err != nil {
			return err
		}
	}
	if err := activities.SealMultiSource(dbSource); err != nil {
		return err
	}

	// appSink = new activity MultiSink
	appSink := activities.NewMultiSink("appSink", activity.AtApplication)
	win := activities.NewVideoWindow("videoTrack", activity.AtApplication, media.VideoQuality{}, 60*avtime.Millisecond)
	dac, err := activities.NewAudioSink("englishTrack", activity.AtApplication, media.TypeVoiceAudio, media.AudioQualityVoice, 60*avtime.Millisecond)
	if err != nil {
		return err
	}
	subs := activities.NewSubtitleSink("subtitleTrack", activity.AtApplication)
	for _, a := range []activity.Activity{win, dac, subs} {
		if err := appSink.Install(a); err != nil {
			return err
		}
	}
	if err := activities.SealMultiSink(appSink); err != nil {
		return err
	}

	if err := sess.Install(dbSource, sched.Resources{Buffers: 3}); err != nil {
		return err
	}
	if err := sess.Install(appSink, sched.Resources{}); err != nil {
		return err
	}
	// compositeStream = new connection from dbSource.out to appSink.in
	if _, err := sess.Connect(dbSource, "out", appSink, "in", media.MBPerSecond); err != nil {
		return err
	}
	// myNews = select Newscast where (title and date)
	myNews, err := db.SelectOne(`select Newscast where (title = "60 Minutes" and whenBroadcast = 1993-04-19)`)
	if err != nil {
		return err
	}
	// bind myNews.clip to dbSource ... start compositeStream
	if err := sess.BindClip(myNews, "clip", dbSource, 0); err != nil {
		return err
	}
	pb, err := sess.Start()
	if err != nil {
		return err
	}
	if _, err := pb.Wait(); err != nil {
		return err
	}
	fmt.Printf("bilingual playback: %d frames, %d audio samples, %d subtitle changes\n",
		win.FramesShown(), dac.SamplesPlayed(), len(subs.Cues()))
	va, aa := win.Arrivals(), dac.Arrivals()
	var worst avtime.WorldTime
	for i := 15; i < min(len(va), len(aa)); i++ {
		s := va[i] - aa[i]
		if s < 0 {
			s = -s
		}
		if s > worst {
			worst = s
		}
	}
	fmt.Printf("worst steady-state A/V skew under composite sync: %v\n", worst)
	return nil
}

// timelines shows §4.1's world and object time: a CCIR 601 copy of the
// broadcast's first second read through the MediaValue interface, the
// whole clip moved on the world timeline, and a §3.3 quality factor.
func timelines(db *core.Database, oid schema.OID) error {
	d, err := db.GetAttr(oid, "clip")
	if err != nil {
		return err
	}
	clip := d.TCompVal()
	track, _ := clip.Track("videoTrack")
	ccir := media.NewVideoValue(media.TypeCCIRVideo, w, h, 8)
	for i := 0; i < 25; i++ {
		f, _ := track.Value.(*media.VideoValue).Frame(i)
		if err := ccir.AppendFrame(f); err != nil {
			return err
		}
	}
	var v media.Value = ccir
	v.Scale(2)
	at := v.ObjectToWorld(10)
	el, err := v.Element(at)
	if err != nil {
		return err
	}
	fmt.Printf("CCIR 601 copy at double speed: %v long, frame %d at %v (%d bytes)\n", v.Duration(), v.WorldToObject(at), at, el.Size())
	clip.Translate(avtime.Second)
	fmt.Printf("clip translated on the world timeline to %v\n", clip.Interval())
	clip.Translate(-avtime.Second)
	cd, err := media.ParseAudioQuality("CD")
	if err != nil {
		return err
	}
	fmt.Printf("narration at %v quality would need %v\n", cd, cd.DataRate())
	return nil
}

// editAndRecord performs a non-linear edit: cross-mix two source clips on
// the effects processor and record the result as a new Promo version.
// It returns the promo's reference.
func editAndRecord(db *core.Database) (schema.OID, error) {
	sess, err := db.Connect("edit-suite", "lan0")
	if err != nil {
		return 0, err
	}
	defer sess.Close()

	// The edit needs the (expensive, shared) video effects processor.
	if err := sess.AcquireDevice("fx0"); err != nil {
		return 0, err
	}
	fmt.Println("edit suite acquired the effects processor")

	// Two source clips, placed on DIFFERENT disks so both streams can be
	// produced simultaneously.
	clipA := synth.Video(media.TypeRawVideo30, synth.PatternMotion, w, h, 8, frames, 201)
	clipB := synth.Video(media.TypeRawVideo30, synth.PatternChecker, w, h, 8, frames, 202)
	promo, err := db.NewObject("Promo")
	if err != nil {
		return 0, err
	}
	if err := db.SetAttr(promo.OID(), "title", schema.String("Product Launch")); err != nil {
		return 0, err
	}
	if err := db.SetAttr(promo.OID(), "product", schema.String("ObjectBase 2.0")); err != nil {
		return 0, err
	}
	if err := db.SetAttr(promo.OID(), "videoTrack", schema.Media(clipA)); err != nil {
		return 0, err
	}
	segA, err := db.PlaceMedia(promo.OID(), "videoTrack", "disk0", 2*media.MBPerSecond)
	if err != nil {
		return 0, err
	}
	segB, err := db.Storage().Place(clipB, "disk1")
	if err != nil {
		return 0, err
	}
	fmt.Printf("sources placed for simultaneous production: %v / %v\n", segA, segB)

	readerA, err := activities.NewVideoReader("srcA", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		return 0, err
	}
	if err := readerA.Bind(clipA, "out"); err != nil {
		return 0, err
	}
	readerB, err := activities.NewVideoReader("srcB", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		return 0, err
	}
	if err := readerB.Bind(clipB, "out"); err != nil {
		return 0, err
	}
	mixer, err := activities.NewVideoMixer("fx-mix", activity.AtDatabase, []float64{2, 1})
	if err != nil {
		return 0, err
	}
	recorder, err := activities.NewVideoWriter("record", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		return 0, err
	}
	edited := media.NewVideoValue(media.TypeRawVideo30, w, h, 8)
	if err := recorder.Bind(edited, "in"); err != nil {
		return 0, err
	}
	for _, a := range []activity.Activity{readerA, readerB, mixer, recorder} {
		if err := sess.Install(a, sched.Resources{Buffers: 1}); err != nil {
			return 0, err
		}
	}
	for _, c := range []struct {
		from activity.Activity
		fp   string
		to   activity.Activity
		tp   string
	}{
		{readerA, "out", mixer, "in0"},
		{readerB, "out", mixer, "in1"},
		{mixer, "out", recorder, "in"},
	} {
		if _, err := sess.Connect(c.from, c.fp, c.to, c.tp, 0); err != nil {
			return 0, err
		}
	}
	pb, err := sess.Start()
	if err != nil {
		return 0, err
	}
	if _, err := pb.Wait(); err != nil {
		return 0, err
	}
	fmt.Printf("edit rendered: %d mixed frames recorded\n", edited.NumFrames())

	// Check the edit in as version 2 of the promo's video.
	if _, err := db.Versions().Checkin(promo.OID(), "videoTrack", clipA, "camera original"); err != nil {
		return 0, err
	}
	v, err := db.Versions().Checkin(promo.OID(), "videoTrack", edited, "mixed master")
	if err != nil {
		return 0, err
	}
	fmt.Printf("checked in as version %d (%d versions in history)\n",
		v, len(db.Versions().History(promo.OID(), "videoTrack")))
	return promo.OID(), nil
}

// linkPresentation links the promo to the broadcast it cites, Scenario
// I's hypermedia link from a presentation to its material.
func linkPresentation(db *core.Database, promo, news schema.OID) error {
	if err := db.AddLink(promo, news, "cites"); err != nil {
		return err
	}
	fmt.Printf("hypermedia link %v; the broadcast has %d backlink(s)\n", db.Links(promo)[0], len(db.Backlinks(news)))
	if err := db.RemoveLink(promo, news, "cites"); err != nil {
		return err
	}
	fmt.Printf("link removed: the promo has %d link(s)\n", len(db.Links(promo)))
	return nil
}

// archiveToJukebox moves a broadcast's stored video to the analog
// videodisc jukebox — the bulk tier.
func archiveToJukebox(db *core.Database, oid schema.OID) error {
	d, err := db.GetAttr(oid, "clip")
	if err != nil {
		return err
	}
	// Mastered to videodisc: the same frames as an LV value.
	track, _ := d.TCompVal().Track("videoTrack")
	src := track.Value.(*media.VideoValue)
	lv := media.NewVideoValue(codec.TypeLVVideo, w, h, 8)
	for i := 0; i < src.NumFrames(); i++ {
		f, _ := src.Frame(i)
		if err := lv.AppendFrame(f); err != nil {
			return err
		}
	}
	seg, err := db.Storage().PlaceOnDisc(lv, "jukebox0", 2)
	if err != nil {
		return err
	}
	fmt.Printf("archived to the videodisc jukebox: %v\n", seg)
	return nil
}
