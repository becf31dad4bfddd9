package core

import (
	"runtime"
	"sync"
	"testing"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/schema"
	"avdb/internal/storage"
)

// TestOffLoopStorageCallsRace: clients call into storage from their own
// goroutines while the engine steps pooled, disk-scheduled playbacks.
// Session.Close, Session.CacheStats, Database.MediaIOStats,
// Storage().PoolStats and Engine().SessionsAppend race the engine's
// chunk reads and round closes, which they meet on the store's one
// lock.  Run under -race.  Once every session is closed, no disk holds
// a reservation and the pool holds no staged op.
func TestOffLoopStorageCallsRace(t *testing.T) {
	const sessions, frames, holdAt = 8, 240, 16
	db := stripedDB(t, storage.StripePolicy{Seeks: true, Rounds: true})
	st := db.Storage()
	st.SetCachePolicy(storage.CachePolicy{Capacity: 4, Lookahead: 2})
	// Two sessions a clip, so the pool serves shared hits too.
	clips := make([]schema.OID, sessions/2)
	for i := range clips {
		clips[i] = clipObject(t, db, frames)
		if _, err := db.PlaceMediaStriped(clips[i], "videoTrack", media.MBPerSecond, 2); err != nil {
			t.Fatal(err)
		}
	}
	ss := make([]*Session, sessions)
	held := make(chan struct{})
	for i := range ss {
		var reader *activities.VideoReader
		ss[i], reader = playVideo(t, db, "client", clips[i%len(clips)], media.MBPerSecond)
		if i > 0 {
			continue
		}
		// The engine plays the clips out in well under a scheduling
		// quantum.  The handler holds it mid-run, on its own goroutine,
		// until the first Close has begun, so the closes race a stepping
		// engine.
		if err := reader.Catch(activity.EventEachFrame, func(ev activity.EventInfo) {
			if ev.Seq != holdAt {
				return
			}
			close(held)
			for !ss[0].Closed() {
				runtime.Gosched()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	e := db.Engine()
	e.Pause()
	var firstDone <-chan struct{}
	for i, s := range ss {
		pb, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstDone = pb.Done()
		}
	}
	e.Resume()

	done := make(chan struct{})
	var wg sync.WaitGroup
	poll := func(call func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					call()
				}
			}
		}()
	}
	poll(func() {
		for _, s := range ss {
			s.CacheStats()
		}
	})
	poll(func() {
		db.MediaIOStats()
		st.PoolStats()
	})
	var buf []EngineSession
	poll(func() { buf = e.SessionsAppend(buf[:0], 0) })
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		select {
		case <-held:
		case <-firstDone:
			t.Errorf("the first playback ended before frame %d", holdAt)
		}
		for _, s := range ss {
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()

	if io := db.MediaIOStats(); io.Scheduled == 0 {
		t.Errorf("no read went through the rounds: %+v", io)
	}
	if ps := st.PoolStats(); ps.Hits == 0 || ps.Staged != 0 || ps.Streams != 0 {
		t.Errorf("after every session closed the pool reads %+v; want hits, no stream attached and nothing staged", ps)
	}
	for _, id := range []string{"disk0", "disk1"} {
		d, _ := db.Devices().Get(id)
		if got := d.(*device.Disk).ReservedBandwidth(); got != 0 {
			t.Errorf("%s still reserves %v after every session closed", id, got)
		}
	}
}
