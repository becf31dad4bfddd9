package core

import (
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/codec"
	"avdb/internal/media"
	"avdb/internal/schema"
)

func TestHypermediaLinks(t *testing.T) {
	db := testDB(t)
	video := storeNewscast(t, db, "60 Minutes", 2)
	doc, err := db.NewObject("MediaObject")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(doc.OID(), "title", schema.String("Project X design doc")); err != nil {
		t.Fatal(err)
	}

	if err := db.AddLink(doc.OID(), video, "presentation"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddLink(doc.OID(), video, "presentation"); err != nil {
		t.Errorf("re-adding a link should be a no-op: %v", err)
	}
	if err := db.AddLink(doc.OID(), video, "demo"); err != nil {
		t.Fatal(err)
	}

	out := db.Links(doc.OID())
	if len(out) != 2 || out[0].Label != "demo" || out[1].Label != "presentation" {
		t.Errorf("Links = %v", out)
	}
	back := db.Backlinks(video)
	if len(back) != 2 || back[0].From != doc.OID() {
		t.Errorf("Backlinks = %v", back)
	}
	if db.Links(video) != nil {
		t.Error("video has no outgoing links")
	}
	if out[0].String() == "" {
		t.Error("empty String")
	}

	// Validation.
	if err := db.AddLink(9999, video, "x"); err == nil {
		t.Error("link from missing object accepted")
	}
	if err := db.AddLink(doc.OID(), 9999, "x"); err == nil {
		t.Error("link to missing object accepted")
	}
	if err := db.AddLink(doc.OID(), video, ""); err == nil {
		t.Error("empty label accepted")
	}
	if err := db.AddLink(doc.OID(), video, "a/b"); err == nil {
		t.Error("slash label accepted")
	}

	// Removal.
	if err := db.RemoveLink(doc.OID(), video, "demo"); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveLink(doc.OID(), video, "demo"); err == nil {
		t.Error("double remove accepted")
	}
	if got := db.Links(doc.OID()); len(got) != 1 {
		t.Errorf("after remove: %v", got)
	}
}

func TestLinksSurviveCrash(t *testing.T) {
	db := testDB(t)
	video := storeNewscast(t, db, "60 Minutes", 2)
	doc, err := db.NewObject("MediaObject")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(doc.OID(), "title", schema.String("doc")); err != nil {
		t.Fatal(err)
	}
	if err := db.AddLink(doc.OID(), video, "presentation"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddLink(doc.OID(), video, "deleted-later"); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveLink(doc.OID(), video, "deleted-later"); err != nil {
		t.Fatal(err)
	}

	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	out := db.Links(doc.OID())
	if len(out) != 1 || out[0].Label != "presentation" || out[0].To != video {
		t.Errorf("links after recovery = %v", out)
	}
	if back := db.Backlinks(video); len(back) != 1 {
		t.Errorf("backlinks after recovery = %v", back)
	}
}

// TestLinkAddRemoveRaceRecovers races an AddLink of an absent link
// against a RemoveLink retried until it succeeds.  The link ends absent
// in memory, and recovery must agree: each call changes memory and the
// log under one lock, so the log cannot order the add after the remove.
func TestLinkAddRemoveRaceRecovers(t *testing.T) {
	db := testDB(t)
	var ends [2]schema.OID
	for i := range ends {
		o, err := db.NewObject("MediaObject")
		if err != nil {
			t.Fatal(err)
		}
		ends[i] = o.OID()
	}
	from, to := ends[0], ends[1]
	const trials = 1000
	for i := 0; i < trials; i++ {
		label := "t" + strconv.Itoa(i)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := db.AddLink(from, to, label); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			for db.RemoveLink(from, to, label) != nil {
				runtime.Gosched()
			}
		}()
		wg.Wait()
	}
	if got := db.Links(from); len(got) != 0 {
		t.Fatalf("%d links left in memory, want none", len(got))
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := db.Links(from); len(got) != 0 {
		t.Errorf("recovery brought back %d of %d removed links, first %v", len(got), trials, got[0])
	}
}

func TestRetrieveAtQualityTemporalScaling(t *testing.T) {
	clip := testClip(60) // 2s at 30fps
	// Raw value, lower frame rate requested: frames are dropped, and the
	// rest keep the source's timeline.
	lowFPS := media.VideoQuality{Width: 32, Height: 24, Depth: 8, FPS: 15}
	placed := testClip(60)
	placed.Translate(250 * avtime.Millisecond)
	for _, src := range []*media.VideoValue{clip, placed} {
		v, info, err := RetrieveAtQuality(src, lowFPS)
		if err != nil {
			t.Fatal(err)
		}
		if info.Method != "frame-drop" {
			t.Errorf("method = %s", info.Method)
		}
		if v.NumElements() != 30 {
			t.Errorf("frames = %d, want 30", v.NumElements())
		}
		if v.Interval() != src.Interval() {
			t.Errorf("raw frame-drop moved the timeline: %v -> %v", src.Interval(), v.Interval())
		}
	}
	// Scalable value, lower resolution AND rate: layers and frames drop.
	enc, err := importScalable(clip)
	if err != nil {
		t.Fatal(err)
	}
	both := media.VideoQuality{Width: 16, Height: 12, Depth: 8, FPS: 10}
	v2, info2, err := RetrieveAtQuality(enc, both)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Method != "layer-drop" {
		t.Errorf("method = %s", info2.Method)
	}
	if v2.NumElements() != 20 {
		t.Errorf("frames = %d, want 20", v2.NumElements())
	}
	if v2.Duration() != enc.Duration() {
		t.Errorf("duration changed: %v -> %v", enc.Duration(), v2.Duration())
	}
}

// TestRetrieveAtQualityKeepsTimeline: a value placed at 250 ms and played
// at twice its speed keeps that place and speed through the transcode
// path (decode, resize, encode) and through an encoded frame drop.
func TestRetrieveAtQualityKeepsTimeline(t *testing.T) {
	clip := testClip(60)
	clip.Translate(250 * avtime.Millisecond)
	clip.Scale(2)
	for _, c := range []codec.VideoCodec{codec.JPEG, codec.DVICodec, codec.MPEG} {
		stored, err := c.Encode(clip)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []media.VideoQuality{
			{Width: 16, Height: 12, Depth: 8, FPS: 30},
			{Width: 32, Height: 24, Depth: 8, FPS: 15},
		} {
			v, info, err := RetrieveAtQuality(stored, q)
			if err != nil {
				t.Fatal(err)
			}
			if v.Interval() != clip.Interval() {
				t.Errorf("%s at %v (%s): spans %v, source %v", c.Name(), q, info.Method, v.Interval(), clip.Interval())
			}
		}
	}
}

func importScalable(clip *media.VideoValue) (media.Value, error) {
	db, err := Open(Config{})
	if err != nil {
		return nil, err
	}
	return db.ImportVideo(clip, RepresentationHints{Scalable: true})
}

// TestBacklinksOrderIsTotal: links that differ only in their source come
// back in one order, whatever order recovery met their keys in.
func TestBacklinksOrderIsTotal(t *testing.T) {
	db := testDB(t)
	target := storeNewscast(t, db, "60 Minutes", 2)
	var want []Link
	for i := 0; i < 8; i++ {
		doc, err := db.NewObject("MediaObject")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Link{From: doc.OID(), To: target, Label: "cites"})
	}
	for _, i := range []int{5, 2, 7, 0, 3, 6, 1, 4} {
		if err := db.AddLink(want[i].From, target, "cites"); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Backlinks(target); !reflect.DeepEqual(got, want) {
		t.Fatalf("Backlinks = %v, want %v", got, want)
	}
	for round := 0; round < 50; round++ {
		db.Crash()
		if err := db.Recover(); err != nil {
			t.Fatal(err)
		}
		if got := db.Backlinks(target); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Backlinks = %v, want %v", round, got, want)
		}
	}
}
