package experiment

import (
	"errors"
	"fmt"
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/core"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
	"avdb/internal/storage"
)

// overloadStream is one armed stream of the overload contrast and what
// its window saw.
type overloadStream struct {
	*stream
	prio     sched.Priority
	frames   int
	grant    *sched.Grant
	degraded int // EventDegraded edges at the window
	restored int // EventRestored edges at the window
}

// overloadArm is one run of the overload contrast.
type overloadArm struct {
	streams []*overloadStream
	errs    []error // per resident stream, from Wait
	late    *overloadStream

	lateShedAt, lateAdmitted int // frame of the shed and of the admitting Start; 0 = never
	lateRetryAfter           avtime.WorldTime
	lateErr                  error

	eng core.EngineStats
	io  storage.IOStats
}

// missRate is storage deadline misses over chunk requests served.
func (a *overloadArm) missRate() float64 {
	return float64(a.io.DeadlineMisses) / float64(a.io.Scheduled+a.io.Demand)
}

// runOverload plays n sessions on two disks too slow for them at full
// quality: each disk's SCAN-EDF round needs two 20 ms frame reads plus
// seeks against a 33 ms period, while one full and one degraded read
// fit.  The first half are high priority on half-length clips, the rest
// low priority on full ones.  Every stream has the same degradation
// path armed and no stall detector, so only the engine's sweep degrades.
// A late joiner on an idle third disk starts from an EachFrame handler
// of the last stream at frame 12, deep in the overload, and again at
// three quarters of the run, after the high-priority clips ended.
func runOverload(t *testing.T, frames, n int, control bool) *overloadArm {
	t.Helper()
	q, err := media.ParseVideoQuality(ablationQuality)
	if err != nil {
		t.Fatal(err)
	}
	frameBytes := ablationClip(1).Size()
	diskBW := media.DataRate(50 * frameBytes)
	db, err := core.Open(core.Config{
		Name:      "overload",
		Resources: sched.Resources{Buffers: 8*n + 16, CPU: 100 * media.MBPerSecond, Bus: 100 * media.MBPerSecond},
		Striping:  storage.StripePolicy{Seeks: true, Rounds: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d := device.NewDisk(fmt.Sprintf("disk%d", i), 4*int64(frames)*frameBytes+frameBytes, diskBW, avtime.Millisecond)
		if err := db.Devices().Register(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Network().AddLink(netsim.NewLink("lan0", media.DataRate(n+2)*q.DataRate(), avtime.Millisecond, 0, 7)); err != nil {
		t.Fatal(err)
	}
	defineClip(t, db)
	if control {
		db.Engine().EnableOverloadControl(sched.OverloadPolicy{})
	}

	// build books the loaded disks optimistically, below the streams'
	// true appetite: the admission the engine's runtime control has to
	// clean up after.
	build := func(client, disk string, clipFrames int, prio sched.Priority, bindRate media.DataRate) *overloadStream {
		oid := newClip(t, db, ablationClip(clipFrames))
		if _, err := db.PlaceMedia(oid, "videoTrack", disk, bindRate); err != nil {
			t.Fatal(err)
		}
		sess, err := db.Connect(client, "lan0")
		if err != nil {
			t.Fatal(err)
		}
		sess.SetPriority(prio)
		src, err := activities.NewVideoReader("src", activity.AtDatabase, media.TypeRawVideo30)
		if err != nil {
			t.Fatal(err)
		}
		win := activities.NewVideoWindow("win", activity.AtApplication, media.VideoQuality{}, 40*avtime.Millisecond)
		for _, a := range []activity.Activity{src, win} {
			if err := sess.Install(a, sched.Resources{}); err != nil {
				t.Fatal(err)
			}
		}
		conn, err := sess.Connect(src, "out", win, "in", q.DataRate())
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.BindValue(oid, "videoTrack", src, "out", bindRate); err != nil {
			t.Fatal(err)
		}
		grant, err := db.Admission().Reserve(core.ResourcesForVideo(q))
		if err != nil {
			t.Fatal(err)
		}
		st := &overloadStream{stream: &stream{sess: sess, src: src, win: win}, prio: prio, frames: clipFrames, grant: grant}
		fallback := media.VideoQuality{Width: q.Width / 2, Height: q.Height / 2, Depth: q.Depth, FPS: q.FPS}
		if err := sess.EnableDegradation(core.DegradeSpec{
			Source: src, Port: "out", Sink: win, Quality: fallback, Grant: grant, Conn: conn.Network(),
		}); err != nil {
			t.Fatal(err)
		}
		if err := win.Catch(activity.EventDegraded, func(activity.EventInfo) { st.degraded++ }); err != nil {
			t.Fatal(err)
		}
		if err := win.Catch(activity.EventRestored, func(activity.EventInfo) { st.restored++ }); err != nil {
			t.Fatal(err)
		}
		return st
	}

	arm := &overloadArm{}
	for i := 0; i < n; i++ {
		prio, clipFrames := sched.PriorityHigh, frames/2
		if i >= n/2 {
			prio, clipFrames = sched.PriorityLow, frames
		}
		arm.streams = append(arm.streams, build(fmt.Sprintf("s%d", i), fmt.Sprintf("disk%d", i%2), clipFrames, prio, diskBW/media.DataRate(n)))
	}
	arm.late = build("late", "disk2", frames/4, sched.PriorityHigh, q.DataRate())

	// Handlers run on the engine goroutine, where Start is safe and the
	// shed gate's answer is deterministic.
	var latePB *core.Playback
	frame := 0
	if err := arm.streams[n-1].src.Catch(activity.EventEachFrame, func(activity.EventInfo) {
		frame++
		if (frame != 12 && frame != frames*3/4) || latePB != nil {
			return
		}
		pb, err := arm.late.sess.Start()
		var oe *core.OverloadError
		switch {
		case errors.As(err, &oe):
			arm.lateShedAt, arm.lateRetryAfter = frame, oe.RetryAfter
		case err != nil:
			arm.lateErr = err
		default:
			latePB, arm.lateAdmitted = pb, frame
		}
	}); err != nil {
		t.Fatal(err)
	}

	db.Engine().Pause()
	var pbs []*core.Playback
	for _, st := range arm.streams {
		pb, err := st.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		pbs = append(pbs, pb)
	}
	db.Engine().Resume()
	for _, pb := range pbs {
		_, err := pb.Wait()
		arm.errs = append(arm.errs, err)
	}
	if latePB != nil {
		if _, err := latePB.Wait(); err != nil {
			arm.lateErr = err
		}
	}
	arm.eng = db.Engine().Stats()
	arm.io = db.MediaIOStats()
	for _, st := range append(arm.streams, arm.late) {
		st.grant.Release()
		if err := st.sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return arm
}

// TestOverloadContrast holds the overload controller's claims on
// identical infeasible load.  Control off admits everything and thrashes.
// Control on keeps the miss rate and the overrun rounds under half the
// off arm's; it degrades low-priority sessions and never a high one,
// sweeps at least twice and restores at least once; it sheds the late
// joiner with a RetryAfter hint and later admits it to play its whole
// clip.  Every resident session shows every frame in both arms:
// degradation gives up quality, never frames.
func TestOverloadContrast(t *testing.T) {
	const frames, n = 120, 4
	on, off := runOverload(t, frames, n, true), runOverload(t, frames, n, false)

	if off.eng.Degraded != 0 || off.eng.Rejected != 0 || off.lateShedAt != 0 {
		t.Errorf("off arm took control actions: swept=%d rejected=%d lateShed=%d",
			off.eng.Degraded, off.eng.Rejected, off.lateShedAt)
	}
	if off.missRate() < 0.20 {
		t.Errorf("off arm miss rate %.3f, want the thrash regime (>= 0.20)", off.missRate())
	}
	if on.missRate() >= off.missRate()/2 {
		t.Errorf("on arm miss rate %.3f not under half the off arm's %.3f", on.missRate(), off.missRate())
	}
	if on.io.RoundsOverrun >= off.io.RoundsOverrun/2 {
		t.Errorf("on arm overran %d rounds, not under half the off arm's %d", on.io.RoundsOverrun, off.io.RoundsOverrun)
	}

	var lowDegraded int
	for _, st := range on.streams {
		switch st.prio {
		case sched.PriorityHigh:
			if st.degraded != 0 {
				t.Errorf("high-priority %s degraded %d times", st.sess.ID(), st.degraded)
			}
		case sched.PriorityLow:
			lowDegraded += st.degraded
		}
	}
	if lowDegraded == 0 {
		t.Error("on arm never degraded a low-priority session")
	}
	if on.eng.Degraded < 2 || on.eng.Restored < 1 {
		t.Errorf("on arm swept %d and restored %d, want >= 2 sweeps and >= 1 restore", on.eng.Degraded, on.eng.Restored)
	}

	if on.eng.Rejected < 1 || on.lateShedAt == 0 || on.lateRetryAfter <= 0 {
		t.Errorf("on arm late joiner not shed: rejected=%d shedAt=%d retryAfter=%v",
			on.eng.Rejected, on.lateShedAt, on.lateRetryAfter)
	}
	if on.lateAdmitted == 0 || on.late.win.FramesShown() != on.late.frames || on.lateErr != nil {
		t.Errorf("on arm late joiner not admitted whole: admitted at frame %d, shown %d/%d, err %v",
			on.lateAdmitted, on.late.win.FramesShown(), on.late.frames, on.lateErr)
	}

	for _, arm := range []*overloadArm{on, off} {
		for i, st := range arm.streams {
			if arm.errs[i] != nil || st.win.FramesShown() != st.frames {
				t.Errorf("control=%v %s: shown %d/%d, err %v", arm == on, st.sess.ID(), st.win.FramesShown(), st.frames, arm.errs[i])
			}
		}
	}
	t.Logf("miss rate on %.3f off %.3f; overruns %d/%d; swept %d restored %d; late shed at %d, admitted at %d",
		on.missRate(), off.missRate(), on.io.RoundsOverrun, off.io.RoundsOverrun, on.eng.Degraded, on.eng.Restored,
		on.lateShedAt, on.lateAdmitted)
}
