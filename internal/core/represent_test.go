package core

import (
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/sched"
	"avdb/internal/synth"
)

// TestResizeVideoNearestNeighbor holds the resampling view's stepped
// column walk and repeated-row copies — what a raw value is resized by —
// to the definition: output pixel (x, y) is source pixel (x·W/w, y·H/h),
// whether the frame shrinks, grows or both.
func TestResizeVideoNearestNeighbor(t *testing.T) {
	for _, depth := range []int{8, 16, 24} {
		src := synth.Video(media.TypeRawVideo30, synth.PatternNoise, 13, 7, depth, 2, 5)
		bpp := depth / 8
		for _, to := range [][2]int{{13, 7}, {6, 3}, {5, 20}, {40, 30}, {1, 1}, {27, 2}} {
			w, h := to[0], to[1]
			got := src.Resample(w, h, 1)
			for i := 0; i < src.NumFrames(); i++ {
				sf, _ := src.Frame(i)
				el, _ := got.ElementAt(avtime.ObjectTime(i))
				gf := el.(*media.Frame)
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						s := ((y*7/h)*13 + x*13/w) * bpp
						d := (y*w + x) * bpp
						if string(gf.Pix[d:d+bpp]) != string(sf.Pix[s:s+bpp]) {
							t.Fatalf("depth %d to %dx%d frame %d: pixel (%d,%d) is not the nearest neighbour", depth, w, h, i, x, y)
						}
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("zero-width target accepted")
		}
	}()
	synth.Video(media.TypeRawVideo30, synth.PatternBars, 4, 4, 8, 1, 1).Resample(0, 3, 1)
}

// TestRetrieveAtQualityRawInfo pins what a raw retrieval reports: the
// bytes of the kept source frames plus those of their resample.
func TestRetrieveAtQualityRawInfo(t *testing.T) {
	clip := testClip(61) // 32x24x8: 768 bytes a frame
	for _, c := range []struct {
		q      string
		method string
		in     int64
		out    int64
	}{
		{"32x24x8@30", "direct", 61 * 768, 61 * 768},
		{"32x24x8@15", "frame-drop", 31 * 768, 31 * 768},
		{"32x24x8@10", "frame-drop", 21 * 768, 21 * 768},
		{"16x12x8@30", "transcode", 61*768 + 61*192, 61 * 192},
		{"16x12x8@15", "transcode", 31*768 + 31*192, 31 * 192},
		{"64x24x8@7", "transcode", 16*768 + 16*1536, 16 * 1536},
	} {
		q, err := media.ParseVideoQuality(c.q)
		if err != nil {
			t.Fatal(err)
		}
		v, info, err := RetrieveAtQuality(clip, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := (RetrievalInfo{Method: c.method, BytesProcessed: c.in, BytesOut: c.out}); info != want {
			t.Errorf("%s: %+v, want %+v", c.q, info, want)
		}
		if v.Size() != c.out {
			t.Errorf("%s: value holds %d bytes, info says %d", c.q, v.Size(), c.out)
		}
	}
}

// TestRetrieveAtQualityIsConstantInClipLength: a raw resize costs the
// same whatever the clip's length, since nothing is resampled until it
// is read.
func TestRetrieveAtQualityIsConstantInClipLength(t *testing.T) {
	half := media.VideoQuality{Width: 16, Height: 12, Depth: 8, FPS: 30}
	allocs := func(frames int) float64 {
		clip := testClip(frames)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := RetrieveAtQuality(clip, half); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(60), allocs(600); short != long {
		t.Errorf("allocations per retrieval: %v for 60 frames, %v for 600", short, long)
	}
}

// TestDegradeRebindsCCIRSession: a reader of a raw type other than
// raw30 degrades to a view of its own type, plays it, and restores.
func TestDegradeRebindsCCIRSession(t *testing.T) {
	db := testDB(t)
	sess, err := db.Connect("ccir", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	src, err := activities.NewVideoReader("src", activity.AtDatabase, media.TypeCCIRVideo)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := activities.NewVideoWriter("rec", activity.AtApplication, media.TypeCCIRVideo)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []activity.Activity{src, wr} {
		if err := sess.Install(a, sched.Resources{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Connect(src, "out", wr, "in", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	clip := synth.Video(media.TypeCCIRVideo, synth.PatternMotion, 32, 24, 8, 50, 3)
	clip.Translate(80 * avtime.Millisecond)
	got := media.NewVideoValue(media.TypeCCIRVideo, 16, 12, 8)
	if err := src.Bind(clip, "out"); err != nil {
		t.Fatal(err)
	}
	if err := wr.Bind(got, "in"); err != nil {
		t.Fatal(err)
	}
	win := activities.NewVideoWindow("stalls", activity.AtApplication, media.VideoQuality{}, avtime.Second)
	fallback := media.VideoQuality{Width: 16, Height: 12, Depth: 8, FPS: 25}
	if err := sess.EnableDegradation(DegradeSpec{Source: src, Sink: win, Quality: fallback}); err != nil {
		t.Fatal(err)
	}
	if err := sess.degradeNow(0); err != nil {
		t.Fatalf("degrading a CCIR reader: %v", err)
	}
	if !sess.Degraded() {
		t.Fatal("session not degraded")
	}
	v, _ := src.Binding("out")
	if v.Type() != media.TypeCCIRVideo || v.Start() != clip.Start() || v.Duration() != clip.Duration() {
		t.Errorf("degraded binding %s at %v for %v, source %s at %v for %v",
			v.Type(), v.Start(), v.Duration(), clip.Type(), clip.Start(), clip.Duration())
	}
	pb, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Wait(); err != nil {
		t.Fatal(err)
	}
	if got.NumFrames() != clip.NumFrames() {
		t.Errorf("recorded %d degraded frames, want %d", got.NumFrames(), clip.NumFrames())
	}
	if err := sess.restoreNow(0); err != nil {
		t.Fatal(err)
	}
	if v, _ := src.Binding("out"); v != media.Value(clip) || sess.Degraded() {
		t.Errorf("after restore: binding %v, degraded %v", v, sess.Degraded())
	}
}
