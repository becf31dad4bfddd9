package experiment

import (
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/core"
	"avdb/internal/media"
	"avdb/internal/obs"
	"avdb/internal/sched"
	"avdb/internal/synth"
)

// narrowStream is a reader → window stream, wired but not started, over
// a seeded clip stored on disk0 of a default platform and carried over
// lan0 at the given fraction of the clip's data rate.  Its admission
// grant is reserved explicitly so a degradation path can shrink it.
type narrowStream struct {
	*stream
	col   *obs.Collector // nil unless observed
	grant *sched.Grant
}

// newNarrowStream builds the stream.  With observe set the collector is
// enabled first and the window reports to it.
func newNarrowStream(t *testing.T, frames int, seed int64, observe bool, tolerance avtime.WorldTime, share float64) *narrowStream {
	t.Helper()
	db, err := core.OpenDefault("narrow", core.PlatformConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	c := &narrowStream{}
	if observe {
		c.col = db.EnableObservability()
	}
	defineClip(t, db)
	q, _ := media.ParseVideoQuality(ablationQuality)
	oid := newClip(t, db, synth.Video(media.TypeRawVideo30, synth.PatternMotion, q.Width, q.Height, q.Depth, frames, seed))
	rate := q.DataRate()
	if _, err := db.PlaceMedia(oid, "videoTrack", "disk0", rate); err != nil {
		t.Fatal(err)
	}
	sess, err := db.Connect("narrow-app", "lan0")
	if err != nil {
		t.Fatal(err)
	}
	src, err := activities.NewVideoReader("src", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	win := activities.NewVideoWindow("win", activity.AtApplication, media.VideoQuality{}, tolerance)
	if c.col != nil {
		win.Monitor().SetSink(c.col)
	}
	if c.grant, err = db.Admission().Reserve(core.ResourcesForVideo(q)); err != nil {
		t.Fatal(err)
	}
	for _, a := range []activity.Activity{src, win} {
		if err := sess.Install(a, sched.Resources{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Connect(src, "out", win, "in", media.DataRate(float64(rate)*share)); err != nil {
		t.Fatal(err)
	}
	if err := sess.BindValue(oid, "videoTrack", src, "out", rate); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sess.Close()
		c.grant.Release()
	})
	c.stream = &stream{sess: sess, src: src, win: win}
	return c
}

// stallOutcome is what one stream made of its narrow connection.
type stallOutcome struct {
	err      string
	shown    int
	stalls   int
	degraded bool
	misses   int              // deadline misses at the window
	maxLate  avtime.WorldTime // the window's largest lateness
}

// runNarrow streams frames frames over a connection reserved at a third
// of the clip's data rate.  A frame then costs about 135 ms end to end
// (a 33 ms read, a 100 ms transfer, link latency and jitter), so with a
// 100 ms tolerance every full-quality frame is late.  With recovery
// set, stall detection and degradation to half geometry are armed: a
// degraded frame is a quarter of the bytes and arrives in time.
func runNarrow(t *testing.T, frames int, seed int64, recovery bool) stallOutcome {
	t.Helper()
	const tolerance = 100 * avtime.Millisecond
	c := newNarrowStream(t, frames, seed, false, tolerance, 1.0/3)
	var stall *sched.StallDetector
	if recovery {
		stall = c.win.EnableStallDetection(tolerance, 3)
		q, _ := media.ParseVideoQuality(ablationQuality)
		fallback := media.VideoQuality{Width: q.Width / 2, Height: q.Height / 2, Depth: q.Depth, FPS: q.FPS}
		if err := c.sess.EnableDegradation(core.DegradeSpec{
			Source: c.src, Port: "out", Sink: c.win, Quality: fallback, Grant: c.grant,
		}); err != nil {
			t.Fatal(err)
		}
	}
	var out stallOutcome
	if err := c.win.Catch(activity.EventDegraded, func(activity.EventInfo) { out.degraded = true }); err != nil {
		t.Fatal(err)
	}
	pb, err := c.sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Wait(); err != nil {
		out.err = err.Error()
	}
	if stall != nil {
		out.stalls = stall.Episodes()
	}
	out.shown = c.win.FramesShown()
	out.misses = c.win.Monitor().Misses()
	out.maxLate = c.win.Monitor().MaxLateness()
	return out
}

// TestStallDegradationAblation holds the stall path's claim: over a
// connection too narrow for the clip, the unprotected stream misses
// every deadline, while the armed one detects the stall, degrades, and
// misses fewer; both show every frame.
func TestStallDegradationAblation(t *testing.T) {
	const frames = 120
	base, res := runNarrow(t, frames, 7, false), runNarrow(t, frames, 7, true)
	if base.err != "" || res.err != "" {
		t.Fatalf("a stream died: unprotected %q, armed %q", base.err, res.err)
	}
	if base.shown != frames || res.shown != frames {
		t.Errorf("frames shown: unprotected %d, armed %d, want %d each", base.shown, res.shown, frames)
	}
	if base.misses != frames {
		t.Errorf("unprotected stream missed %d of %d frames; the connection is not narrow enough", base.misses, frames)
	}
	if res.misses >= base.misses {
		t.Errorf("armed stream missed %d of %d frames, unprotected %d: recovery must miss fewer", res.misses, frames, base.misses)
	}
	if res.stalls == 0 {
		t.Error("no stall episode over the narrow connection")
	}
	if !res.degraded {
		t.Error("degradation never fired")
	}
	t.Logf("unprotected %+v\narmed %+v", base, res)
}

// TestStallDegradationDeterministic: the same seed reproduces the armed
// stream's outcome exactly.
func TestStallDegradationDeterministic(t *testing.T) {
	a, b := runNarrow(t, 90, 11, true), runNarrow(t, 90, 11, true)
	if a != b {
		t.Errorf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
}
