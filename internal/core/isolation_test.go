package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/media"
	"avdb/internal/sched"
	"avdb/internal/schema"
)

// isoDB opens a platform with enough disks to give every session its
// own spindle.
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

// placedNewscast stores a clip as a new newscast's videoTrack, placed
// on the given disk.
func placedNewscast(t testing.TB, db *Database, title string, frames int, disk string) schema.OID {
	t.Helper()
	oid := tierNewscast(t, db, title, frames)
	if _, err := db.PlaceMedia(oid, "videoTrack", disk, media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	return oid
}

// failingPlayback wires a reader → tickBombSink session over lan0 to
// the videoTrack of oid; the sink's tick returns fail once it has taken
// after chunks.
func failingPlayback(t testing.TB, db *Database, client string, oid schema.OID, after int, fail error) *Session {
	t.Helper()
	sess, err := db.Connect(client, "lan0")
	if err != nil {
		t.Fatal(err)
	}
	src, err := activities.NewVideoReader("src", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	bomb := &tickBombSink{Base: activity.NewBase("sink", "TickBomb", activity.AtApplication), after: after, fail: fail}
	bomb.AddPort("in", activity.In, media.TypeRawVideo30)
	for _, a := range []activity.Activity{src, bomb} {
		if err := sess.Install(a, sched.Resources{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Connect(src, "out", bomb, "in", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	if err := sess.BindValue(oid, "videoTrack", src, "out", media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	return sess
}

// isoOutcome is one session's result in an isolation run.
type isoOutcome struct {
	Shown int
	Err   string
	Stats activity.RunStats
}

const isoFrames, isoBombAt, isoVictim = 30, 10, 2

// runIsolation runs five sessions, each on its own disk and all sharing
// lan0, started in one engine step; the middle one's sink fails its tick
// once it has taken after chunks (isoBombAt to fail it, isoFrames for a
// run where it never fails).  It returns the observability snapshot
// JSON, each session's outcome and the engine's step count.
func runIsolation(t *testing.T, after int) (string, []isoOutcome, int64) {
	t.Helper()
	db := isoDB(t, 5)
	col := db.EnableObservability()
	var sessions []*Session
	var wins []*activities.VideoWindow
	for i := 0; i < 5; i++ {
		client := fmt.Sprintf("session-%d", i)
		oid := placedNewscast(t, db, client+"-clip", isoFrames, fmt.Sprintf("disk%d", i))
		if i == isoVictim {
			sessions = append(sessions, failingPlayback(t, db, client, oid, after, errors.New("sink wedged")))
			wins = append(wins, nil)
			continue
		}
		ps := bindPlayback(t, db, client, "lan0", oid)
		sessions = append(sessions, ps.sess)
		wins = append(wins, ps.win)
	}

	db.Engine().Pause()
	var pbs []*Playback
	for _, sess := range sessions {
		pb, err := sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		pbs = append(pbs, pb)
	}
	db.Engine().Resume()

	outs := make([]isoOutcome, len(pbs))
	for i, pb := range pbs {
		st, err := pb.Wait()
		if err != nil {
			outs[i].Err = err.Error()
		}
		if st != nil {
			outs[i].Stats = *st
		}
		if wins[i] != nil {
			outs[i].Shown = wins[i].FramesShown()
		}
	}
	for _, sess := range sessions {
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	js, err := col.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js, outs, db.Engine().Stats().Steps
}

// TestEngineSessionFailureIsolation: the failure stays in its own
// session.  Each bystander's outcome and RunStats equal those of a run
// where the middle session never fails, and the engine takes the same
// number of steps (no bystander tick is pushed into a later step).
func TestEngineSessionFailureIsolation(t *testing.T) {
	_, outs, steps := runIsolation(t, isoBombAt)
	if outs[isoVictim].Err == "" || outs[isoVictim].Stats.Ticks != isoBombAt {
		t.Errorf("victim: %+v, want a tick error after %d clean ticks", outs[isoVictim], isoBombAt)
	}
	_, clean, cleanSteps := runIsolation(t, isoFrames)
	if clean[isoVictim].Err != "" {
		t.Fatalf("victim failed without the bomb armed: %s", clean[isoVictim].Err)
	}
	if steps != cleanSteps {
		t.Errorf("engine took %d steps with the failure, %d without it", steps, cleanSteps)
	}
	for i := range outs {
		if i == isoVictim {
			continue
		}
		if outs[i].Err != "" || outs[i].Shown != isoFrames {
			t.Errorf("bystander %d: %+v, want %d frames and no error", i, outs[i], isoFrames)
		}
		if !reflect.DeepEqual(outs[i], clean[i]) {
			t.Errorf("bystander %d perturbed by the failure:\n%+v\nwithout it:\n%+v", i, outs[i], clean[i])
		}
	}
}

// TestEngineSessionFailureDeterminism: with one session failing, the
// whole ensemble — outcomes and observability snapshot — is
// byte-identical on a repeat run.
func TestEngineSessionFailureDeterminism(t *testing.T) {
	snap, outs, _ := runIsolation(t, isoBombAt)
	if outs[isoVictim].Err == "" {
		t.Fatalf("victim: %+v, want a tick error", outs[isoVictim])
	}
	snap2, outs2, _ := runIsolation(t, isoBombAt)
	if !reflect.DeepEqual(outs, outs2) {
		t.Errorf("outcomes differ across repeats: %+v vs %+v", outs2, outs)
	}
	if snap2 != snap {
		t.Errorf("obs snapshots differ across repeats (%d vs %d bytes)", len(snap2), len(snap))
	}
}
