package activities

import (
	"bytes"
	"reflect"
	"testing"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/obs"
	"avdb/internal/sched"
	"avdb/internal/storage"
)

// runStripedWide plays 8 striped streams through VideoReaders in one
// graph and returns everything the determinism comparison needs: run
// stats, per-window arrival times, the scheduler counters, and the full
// obs snapshot.  It drives the run the way the engine does: each tick
// is tagged with its own round, which closes when the tick ends.
func runStripedWide(t *testing.T) (*activity.RunStats, [][]avtime.WorldTime, storage.IOStats, []byte) {
	t.Helper()
	const (
		lanes  = 8
		frames = 30
		width  = 4
	)
	dm := device.NewManager()
	for _, id := range []string{"d0", "d1", "d2", "d3"} {
		d := device.NewDisk(id, 10_000_000, media.DataRate(lanes)*media.MBPerSecond, 10*avtime.Millisecond)
		if err := d.SetGeometry(16, avtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := dm.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	st := storage.NewStore(dm)
	col := obs.NewCollector()
	st.SetSink(col)
	st.SetStriping(storage.StripePolicy{Seeks: true, Rounds: true})

	g := activity.NewGraph("striped")
	wins := make([]*VideoWindow, lanes)
	for i := 0; i < lanes; i++ {
		clip := motionClip(frames)
		seg, err := st.PlaceStriped(clip, media.MBPerSecond, width)
		if err != nil {
			t.Fatal(err)
		}
		stream, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		reader, err := NewVideoReader("r"+string(rune('0'+i)), db, media.TypeRawVideo30)
		if err != nil {
			t.Fatal(err)
		}
		if err := reader.Bind(clip, "out"); err != nil {
			t.Fatal(err)
		}
		reader.AttachStream(stream)
		wins[i] = NewVideoWindow("w"+string(rune('0'+i)), app, media.VideoQuality{}, avtime.Second)
		addAll(t, g, reader, wins[i])
		connect(t, g, reader, "out", wins[i], "in")
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	run, err := g.Begin(activity.RunConfig{Clock: sched.NewVirtualClock(0), Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	for round := int64(0); ; round++ {
		run.SetRound(round)
		done, err := run.Tick()
		if err != nil {
			t.Fatal(err)
		}
		st.CloseRound(round)
		run.Commit()
		if done {
			break
		}
	}
	stats, err := run.Finish()
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([][]avtime.WorldTime, lanes)
	for i, w := range wins {
		if w.FramesShown() != frames {
			t.Fatalf("window %d showed %d/%d frames", i, w.FramesShown(), frames)
		}
		arrivals[i] = w.Arrivals()
	}
	snap, err := col.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return stats, arrivals, st.IOStats(), []byte(snap)
}

func TestStripedSerialParallelEquivalence(t *testing.T) {
	// The round scheduler sits on the hot path of every reader in the
	// level: eight streams batching per tick must actually share rounds,
	// and a repeat must agree on stats, every stream's arrival times, the
	// scheduler counters, and the byte-exact obs snapshot.
	stats, arr, io, snap := runStripedWide(t)
	if io.Scheduled == 0 || io.SeeksSaved == 0 {
		t.Fatalf("scheduler idle in the striped run: %+v", io)
	}
	stats2, arr2, io2, snap2 := runStripedWide(t)
	if !reflect.DeepEqual(stats, stats2) {
		t.Errorf("RunStats diverged:\nfirst  %+v\nsecond %+v", stats, stats2)
	}
	if !reflect.DeepEqual(arr, arr2) {
		t.Errorf("frame arrival times diverged")
	}
	if io != io2 {
		t.Errorf("IO scheduler stats diverged:\nfirst  %+v\nsecond %+v", io, io2)
	}
	if !bytes.Equal(snap, snap2) {
		t.Errorf("obs snapshots differ (%d vs %d bytes)", len(snap), len(snap2))
	}
}
