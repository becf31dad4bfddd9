package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/fault"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/schema"
)

// isoDB opens a platform with enough disks to give every session its
// own spindle, so a crash on one disk touches exactly one stream.
func isoDB(t testing.TB, disks int) *Database {
	t.Helper()
	db, err := OpenDefault("iso", PlatformConfig{Disks: disks, Seed: 7})
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
		{Name: "whenBroadcast", Kind: schema.KindDate},
		{Name: "videoTrack", Kind: schema.KindMedia, MediaKind: media.KindVideo, VideoQuality: q},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// buildPlaybackOn is buildPlaybackSession with the clip placed on a
// chosen disk and connected over a chosen link.
func buildPlaybackOn(t testing.TB, db *Database, client string, frames int, disk, link string) *playbackSession {
	t.Helper()
	o, err := db.NewObject("SimpleNewscast")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "title", schema.String(client+"-clip")); err != nil {
		t.Fatal(err)
	}
	when := time.Date(1993, 4, 19, 0, 0, 0, 0, time.UTC)
	if err := db.SetAttr(o.OID(), "whenBroadcast", schema.Date(when)); err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "videoTrack", schema.Media(testClip(frames))); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PlaceMedia(o.OID(), "videoTrack", disk, media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	return bindPlayback(t, db, client, link, o.OID())
}

// isoOutcome is the per-session result a crash must not perturb for
// bystanders.
type isoOutcome struct {
	Shown int
	Lost  int
	Err   string
}

// TestEngineDiskCrashIsolation is the tentpole's fault-isolation
// guarantee: five co-scheduled sessions on four disks, a mid-run crash
// of disk2 that never recovers.  The armed session on disk2 fails soft
// (sacrifices frames, completes), the unarmed one dies with a device
// error, and the three bystanders on other disks are untouched —
// byte-for-byte the same observability output on a repeat run, and the
// same per-session outcomes as a crash-free run.
func TestEngineDiskCrashIsolation(t *testing.T) {
	const frames = 30
	total := avtime.WorldTime(frames) * avtime.Second / 30

	run := func(inject bool) (string, []isoOutcome, []*activity.RunStats) {
		db := isoDB(t, 4)
		col := db.EnableObservability()
		if inject {
			plan, err := fault.NewPlan(7).Add(fault.Fault{
				Kind: fault.DeviceOutage, Target: "disk2", Start: total / 3, Dur: total,
			})
			if err != nil {
				t.Fatal(err)
			}
			db.Devices().SetFaultHook(fault.NewInjector(plan, db.Clock()))
		}

		a := buildPlaybackOn(t, db, "bystander-a", frames, "disk0", "lan0")
		b := buildPlaybackOn(t, db, "bystander-b", frames, "disk1", "lan0")
		soft := buildPlaybackOn(t, db, "victim-soft", frames, "disk2", "lan0")
		soft.src.SetDropOnFault(true) // fail-soft: sacrifice frames, keep playing
		hard := buildPlaybackOn(t, db, "victim-hard", frames, "disk2", "lan0")
		d := buildPlaybackOn(t, db, "bystander-d", frames, "disk3", "lan0")
		all := []*playbackSession{a, b, soft, hard, d}

		db.Engine().Pause()
		var pbs []*Playback
		for _, ps := range all {
			pb, err := ps.sess.Start()
			if err != nil {
				t.Fatal(err)
			}
			pbs = append(pbs, pb)
		}
		db.Engine().Resume()

		outs := make([]isoOutcome, len(all))
		stats := make([]*activity.RunStats, len(all))
		for i, pb := range pbs {
			st, err := pb.Wait()
			outs[i] = isoOutcome{Shown: all[i].win.FramesShown(), Lost: all[i].src.FramesLost()}
			if err != nil {
				outs[i].Err = err.Error()
			}
			stats[i] = st
		}
		for _, ps := range all {
			ps.sess.Close()
		}
		js, err := col.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, outs, stats
	}

	snap, outs, stats := run(true)

	// Bystanders (indices 0, 1, 4) are whole; soft victim survived with
	// sacrificed frames; hard victim died of the device failure.
	for _, i := range []int{0, 1, 4} {
		if outs[i].Err != "" || outs[i].Shown != frames || outs[i].Lost != 0 {
			t.Errorf("bystander %d under crash: %+v, want %d/0 frames and no error", i, outs[i], frames)
		}
	}
	if outs[2].Err != "" || outs[2].Lost == 0 || outs[2].Shown+outs[2].Lost != frames {
		t.Errorf("fail-soft victim: %+v, want lost > 0, shown+lost = %d, no error", outs[2], frames)
	}
	if outs[3].Err == "" {
		t.Error("hard victim survived a dead disk")
	} else if got := outs[3].Err; !strings.Contains(got, device.ErrDeviceFailed.Error()) {
		t.Errorf("hard victim error %q does not mention device failure", got)
	}

	// The crash response is deterministic: identical outcomes, RunStats
	// and observability bytes on a repeat run.
	snap2, outs2, stats2 := run(true)
	if !reflect.DeepEqual(outs, outs2) {
		t.Errorf("outcomes under crash differ across repeats: %+v vs %+v", outs2, outs)
	}
	if !reflect.DeepEqual(stats, stats2) {
		t.Error("per-session RunStats under crash differ across repeats")
	}
	if snap2 != snap {
		t.Errorf("obs snapshots differ across repeats (%d vs %d bytes)", len(snap2), len(snap))
	}

	// Isolation proper: the bystanders' outcomes match a crash-free run
	// of the same schedule — the disk2 outage leaked nothing across.
	_, cleanOuts, _ := run(false)
	for _, i := range []int{0, 1, 4} {
		if outs[i] != cleanOuts[i] {
			t.Errorf("bystander %d perturbed by crash: %+v vs crash-free %+v", i, outs[i], cleanOuts[i])
		}
	}
}

// TestEngineChaosIsolationDeterminism is the chaos-under-engine check:
// one victim session with the full recovery stack (bounded retry, frame
// sacrifice, fail-soft transfers, degradation) rides out transient
// faults, an outage and a link collapse on its own disk and link, while
// two bystanders on separate spindles and the shared link stream
// unharmed.  The whole ensemble is deterministic across repeats
// (TestEngineSharedFaultDeterminism is the arm where every session draws
// from one injector).
func TestEngineChaosIsolationDeterminism(t *testing.T) {
	const frames = 30
	total := avtime.WorldTime(frames) * avtime.Second / 30

	run := func() (string, []isoOutcome) {
		db := isoDB(t, 3)
		col := db.EnableObservability()
		// The victim gets a private link so the mid-run link collapse
		// cannot touch the bystanders' transfers.
		vLink := netsim.NewLink("lan-victim", 12*media.MBPerSecond, 2*avtime.Millisecond, avtime.Millisecond, 7)
		if err := db.Network().AddLink(vLink); err != nil {
			t.Fatal(err)
		}

		plan := fault.NewPlan(7)
		for _, f := range []fault.Fault{
			{Kind: fault.TransientRead, Target: "disk0", Start: 0, Dur: total / 2, Probability: 0.4},
			{Kind: fault.DeviceOutage, Target: "disk0", Start: total * 2 / 5, Dur: total / 10},
			{Kind: fault.LinkDegrade, Target: "lan-victim", Start: total / 2, Dur: total / 4, Factor: 0.25},
		} {
			if _, err := plan.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		inj := fault.NewInjector(plan, db.Clock())
		db.Devices().SetFaultHook(inj)
		vLink.SetFaultHook(inj)

		victim := buildPlaybackOn(t, db, "victim", frames, "disk0", "lan-victim")
		victim.src.SetRetry(fault.DefaultRetry)
		victim.src.SetDropOnFault(true)
		b1 := buildPlaybackOn(t, db, "bystander-1", frames, "disk1", "lan0")
		b2 := buildPlaybackOn(t, db, "bystander-2", frames, "disk2", "lan0")
		all := []*playbackSession{victim, b1, b2}

		db.Engine().Pause()
		var pbs []*Playback
		for _, ps := range all {
			pb, err := ps.sess.Start()
			if err != nil {
				t.Fatal(err)
			}
			pbs = append(pbs, pb)
		}
		db.Engine().Resume()

		outs := make([]isoOutcome, len(all))
		for i, pb := range pbs {
			_, err := pb.Wait()
			outs[i] = isoOutcome{Shown: all[i].win.FramesShown(), Lost: all[i].src.FramesLost()}
			if err != nil {
				outs[i].Err = err.Error()
			}
		}
		for _, ps := range all {
			ps.sess.Close()
		}
		js, err := col.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, outs
	}

	snap, outs := run()
	if outs[0].Err != "" {
		t.Errorf("armed victim died: %v", outs[0].Err)
	}
	if outs[0].Shown+outs[0].Lost != frames {
		t.Errorf("victim accounting: shown %d + lost %d != %d", outs[0].Shown, outs[0].Lost, frames)
	}
	for i := 1; i < 3; i++ {
		if outs[i] != (isoOutcome{Shown: frames}) {
			t.Errorf("bystander %d touched by victim's faults: %+v", i, outs[i])
		}
	}
	snap2, outs2 := run()
	if !reflect.DeepEqual(outs, outs2) {
		t.Errorf("chaos outcomes not deterministic: %+v vs %+v", outs, outs2)
	}
	if snap != snap2 {
		t.Errorf("chaos obs snapshots differ across repeats (%d vs %d bytes)", len(snap), len(snap2))
	}
}
