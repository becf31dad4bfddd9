package experiment

import (
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/core"
	"avdb/internal/fault"
	"avdb/internal/media"
	"avdb/internal/obs"
	"avdb/internal/sched"
	"avdb/internal/synth"
)

// campaignStream is a reader → window stream, wired but not started,
// over a seeded clip stored on disk0 of a default platform, with a
// seeded fault plan hooked into the disks and lan0.  Its admission
// grant is reserved explicitly so a degradation path can shrink it.
type campaignStream struct {
	*stream
	col   *obs.Collector // nil unless observed
	inj   *fault.Injector
	conn  *activity.Connection
	grant *sched.Grant
}

// newCampaignStream builds the stream; faults receives the run's length
// in virtual time.  With observe set the collector is enabled first and
// the injector and window report to it.
func newCampaignStream(t *testing.T, frames int, seed int64, observe bool, tolerance avtime.WorldTime, faults func(total avtime.WorldTime) []fault.Fault) *campaignStream {
	t.Helper()
	db, err := core.OpenDefault("campaign", core.PlatformConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	c := &campaignStream{}
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

	plan := fault.NewPlan(seed)
	for _, f := range faults(avtime.WorldTime(frames) * avtime.Second / 30) {
		plan.MustAdd(f)
	}
	c.inj = fault.NewInjector(plan, db.Clock())
	if c.col != nil {
		c.inj.SetSink(c.col)
	}
	db.Devices().SetFaultHook(c.inj)
	link, _ := db.Network().Link("lan0")
	link.SetFaultHook(c.inj)

	sess, err := db.Connect("campaign-app", "lan0")
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
	if c.conn, err = sess.Connect(src, "out", win, "in", rate); err != nil {
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

// chaosOutcome is what one stream made of the chaos campaign.
type chaosOutcome struct {
	err                    string // the fault that killed the stream, if one did
	shown, lost, corrupted int
	dropped                int64 // chunks lost in flight
	retries, stalls        int
	degraded               bool
	misses                 int    // deadline misses, counting undelivered frames
	injected               string // injection counts by kind
}

// runChaos streams frames frames through a campaign of transient read
// faults on disk0 (p=0.25) over the first quarter, a disk0 outage for a
// tenth of the run from 40%, lan0 collapsing to a quarter of its
// bandwidth from 50% to 87.5%, and chunk loss (p=0.05) and corruption
// (p=0.03) throughout.  Recovery arms bounded retry, frame sacrifice,
// fail-soft transfers, stall detection and degradation to half
// geometry.  A frame costs about 70 ms end to end fault-free and 170 ms
// over the collapsed link, so a 100 ms tolerance tells them apart.
func runChaos(t *testing.T, frames int, seed int64, recovery bool) chaosOutcome {
	t.Helper()
	const tolerance = 100 * avtime.Millisecond
	c := newCampaignStream(t, frames, seed, false, tolerance, func(total avtime.WorldTime) []fault.Fault {
		return []fault.Fault{
			{Kind: fault.TransientRead, Target: "disk0", Start: 0, Dur: total / 4, Probability: 0.25},
			{Kind: fault.DeviceOutage, Target: "disk0", Start: total * 2 / 5, Dur: total / 10},
			{Kind: fault.LinkDegrade, Target: "lan0", Start: total / 2, Dur: total * 3 / 8, Factor: 0.25},
			{Kind: fault.ChunkLoss, Target: "lan0", Start: 0, Dur: total, Probability: 0.05},
			{Kind: fault.ChunkCorrupt, Target: "lan0", Start: 0, Dur: total, Probability: 0.03},
		}
	})
	var stall *sched.StallDetector
	if recovery {
		c.src.SetRetry(fault.DefaultRetry)
		c.src.SetDropOnFault(true)
		c.conn.SetFailSoft(true)
		stall = c.win.EnableStallDetection(tolerance, 3)
		q, _ := media.ParseVideoQuality(ablationQuality)
		fallback := media.VideoQuality{Width: q.Width / 2, Height: q.Height / 2, Depth: q.Depth, FPS: q.FPS}
		if err := c.sess.EnableDegradation(core.DegradeSpec{
			Source: c.src, Port: "out", Sink: c.win, Quality: fallback, Grant: c.grant,
		}); err != nil {
			t.Fatal(err)
		}
	}
	var out chaosOutcome
	if err := c.win.Catch(activity.EventDegraded, func(activity.EventInfo) { out.degraded = true }); err != nil {
		t.Fatal(err)
	}
	pb, err := c.sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pb.Wait()
	if err != nil {
		out.err = err.Error()
	}
	if stats != nil {
		out.dropped = stats.ChunksDropped
	}
	if stall != nil {
		out.stalls = stall.Episodes()
	}
	out.shown, out.lost, out.corrupted = c.win.FramesShown(), c.src.FramesLost(), c.win.CorruptedFrames()
	out.retries = c.src.Retries()
	out.misses = c.win.Monitor().Misses() + frames - out.shown
	out.injected = c.inj.CountString()
	return out
}

// TestChaosAblation holds the recovery machinery's claim: under one
// seeded fault campaign the unprotected stream dies, while the armed
// one survives with a lower miss rate, having exercised retry, stall
// detection, degradation, in-flight loss and corruption, and every
// frame is accounted as shown, sacrificed or dropped.
func TestChaosAblation(t *testing.T) {
	const frames = 120
	base, res := runChaos(t, frames, 7, false), runChaos(t, frames, 7, true)
	if base.err == "" {
		t.Error("the unprotected stream survived the campaign; faults not injected?")
	}
	if res.err != "" {
		t.Errorf("the armed stream died: %s", res.err)
	}
	if res.misses >= base.misses {
		t.Errorf("armed stream missed %d of %d frames, unprotected %d: recovery must miss fewer", res.misses, frames, base.misses)
	}
	if res.retries == 0 {
		t.Error("no retries spent; transient faults not exercised")
	}
	if res.stalls == 0 {
		t.Error("no stall episode under the link collapse")
	}
	if !res.degraded {
		t.Error("degradation never fired")
	}
	if res.dropped == 0 {
		t.Error("no chunks dropped; loss faults not exercised")
	}
	if res.corrupted == 0 {
		t.Error("no corrupted frames shown; corruption faults not exercised")
	}
	if res.shown+res.lost+int(res.dropped) != frames {
		t.Errorf("frame accounting broken: %d shown + %d sacrificed + %d dropped != %d", res.shown, res.lost, res.dropped, frames)
	}
	t.Logf("unprotected %+v\narmed %+v", base, res)
}

// TestChaosDeterministic: the same seed reproduces every outcome and the
// injection trace exactly; a different seed injects a different trace.
func TestChaosDeterministic(t *testing.T) {
	a, b := runChaos(t, 90, 11, true), runChaos(t, 90, 11, true)
	if a != b {
		t.Errorf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	if c := runChaos(t, 90, 12, true); c.injected == a.injected && c.shown == a.shown {
		t.Errorf("seeds 11 and 12 injected the same trace: %s", c.injected)
	}
}
