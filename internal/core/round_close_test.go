package core

import (
	"reflect"
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/schema"
	"avdb/internal/storage"
)

// TestEngineStepClosesItsRound: every engine step closes its own storage
// round.  After every step the store's open round is the step count —
// step T closed round T and opened T+1 — the scheduler holds no queued
// request and the buffer pool no staged op.  A disk-scheduled, pooled
// playback at 30 fps shares the engine with a memory-bound one at
// 25 fps, so most steps tick only one of them; the steps where only the
// 25 fps session is due make no scheduled read, and their rounds must
// close all the same.
func TestEngineStepClosesItsRound(t *testing.T) {
	db := stripedDB(t, storage.StripePolicy{Seeks: true, Rounds: true})
	st := db.Storage()
	st.SetCachePolicy(storage.CachePolicy{Capacity: 4, Lookahead: 2})
	disk := clipObject(t, db, 40)
	if _, err := db.PlaceMediaStriped(disk, "videoTrack", media.MBPerSecond, 2); err != nil {
		t.Fatal(err)
	}
	scheduled, _ := playVideo(t, db, "scheduled", disk, media.MBPerSecond)
	memory, _ := playVideo(t, db, "memory", clipObject(t, db, 40), 0)

	e := db.Engine()
	e.mu.Lock()
	e.running = true // keep the loop goroutine out; the test steps directly
	e.mu.Unlock()
	if _, err := scheduled.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := memory.StartAt(avtime.RateVideo25, 0); err != nil {
		t.Fatal(err)
	}

	ticks := func() int {
		for _, es := range e.SessionsAppend(nil, 0) {
			if es.Session == scheduled.ID() {
				return es.Ticks
			}
		}
		return -1
	}
	// The engine steps on to the end even past a failure: the sessions'
	// Close waits for their playbacks.
	var withReads, withoutReads int
	failed := false
	for before := ticks(); e.stepOnce(); {
		step := e.Stats().Steps - 1
		open, queued := roundState(st)
		if staged := st.PoolStats().Staged; (staged != 0 || queued != 0 || open != step+1) && !failed {
			t.Errorf("after step %d: open round %d, %d requests queued, %d pool ops staged; want round %d open, nothing queued or staged",
				step, open, queued, staged, step+1)
			failed = true
		}
		now := ticks()
		if now > before {
			withReads++
		} else {
			withoutReads++
		}
		before = now
	}
	if withoutReads == 0 || withReads == 0 {
		t.Fatalf("%d steps ticked the scheduled session and %d did not; the test needs both", withReads, withoutReads)
	}
	if io := st.IOStats(); io.Rounds == 0 || io.Scheduled == 0 {
		t.Fatalf("no read went through the rounds: %+v", io)
	}
	if ps := st.PoolStats(); ps.Hits == 0 {
		t.Fatalf("no read hit the pool: %+v", ps)
	}
}

// roundState reads the store's round mark and counts the requests its
// scheduler holds.  Neither is exported — nothing outside the store may
// depend on them — so the engine test reads them by reflection.
func roundState(st *storage.Store) (open int64, queued int) {
	v := reflect.ValueOf(st).Elem()
	open = v.FieldByName("open").Int()
	if io := v.FieldByName("io"); !io.IsNil() {
		round := io.Elem().FieldByName("round")
		batches := round.FieldByName("batches")
		for i := 0; i < batches.Len(); i++ {
			queued += batches.Index(i).FieldByName("reqs").Len()
		}
		queued += round.FieldByName("flex").Len()
	}
	return open, queued
}

// clipObject stores a MediaObject whose videoTrack is a clip of the
// given frames.
func clipObject(t *testing.T, db *Database, frames int) schema.OID {
	t.Helper()
	o, err := db.NewObject("MediaObject")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "videoTrack", schema.Media(testClip(frames))); err != nil {
		t.Fatal(err)
	}
	return o.OID()
}

// playVideo connects a client session that plays oid's videoTrack from
// a database-side reader, which it returns too, into an application
// window, bound at rate (0 streams from memory).  The session closes at
// test cleanup.
func playVideo(t *testing.T, db *Database, client string, oid schema.OID, rate media.DataRate) (*Session, *activities.VideoReader) {
	t.Helper()
	sess, err := db.Connect(client, "lan0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	q, _ := media.ParseVideoQuality(testQualityStr)
	reader, err := activities.NewVideoReader("src", activity.AtDatabase, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(reader, ResourcesForVideo(q)); err != nil {
		t.Fatal(err)
	}
	win := activities.NewVideoWindow("win", activity.AtApplication, q, avtime.Second)
	if err := sess.Install(win, ResourcesForVideo(q)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Connect(reader, "out", win, "in", q.DataRate()); err != nil {
		t.Fatal(err)
	}
	if err := sess.BindValue(oid, "videoTrack", reader, "out", rate); err != nil {
		t.Fatal(err)
	}
	return sess, reader
}
