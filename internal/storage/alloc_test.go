package storage

// alloc_test.go pins the storage hot paths' allocation discipline with
// testing.AllocsPerRun, the same gate the activity package applies to
// the graph tick.  The scheduled chunk-read path must allocate
// nothing once the round buffers are warm: requests live in recycled
// flat rounds, results land in the per-stream slot, and track keys come
// from the segment's cached track map.  A regression here silently
// reintroduces per-round garbage across every playback, so it fails the
// build rather than a benchmark eyeball.

import (
	"fmt"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
)

// allocStreams builds the striped SCAN-EDF fixture the stripe benchmark
// uses: streams sequential readers striped over nDisks with the round
// scheduler on, reading frames chunks each.
func allocStreams(t *testing.T, streams, nDisks, frames int) []*Stream {
	t.Helper()
	dm := device.NewManager()
	for i := 0; i < nDisks; i++ {
		d := device.NewDisk(fmt.Sprintf("disk%d", i), 64_000_000,
			media.DataRate(streams)*media.MBPerSecond, 10*avtime.Millisecond)
		if err := d.SetGeometry(16, avtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := dm.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	st := NewStore(dm)
	st.SetStriping(StripePolicy{Seeks: true, Rounds: true})
	ss := make([]*Stream, streams)
	for j := range ss {
		v := media.NewVideoValue(media.TypeRawVideo30, 40, 30, 8)
		for i := 0; i < frames; i++ {
			if err := v.AppendFrame(media.NewFrame(40, 30, 8)); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := st.PlaceStriped(v, media.MBPerSecond, nDisks)
		if err != nil {
			t.Fatal(err)
		}
		if ss[j], _, err = st.OpenStream(seg.ID(), media.MBPerSecond); err != nil {
			t.Fatal(err)
		}
	}
	return ss
}

// TestIOSchedAllocsPerRun pins the tentpole target: the steady-state
// scheduled read path — submit into a pooled round, flush, consume from
// the stream slot, eagerly queue the follow-on — performs zero heap
// allocations per round once warm.
func TestIOSchedAllocsPerRun(t *testing.T) {
	const (
		streams = 8
		frames  = 400
	)
	ss := allocStreams(t, streams, 4, frames)
	defer func() {
		for _, s := range ss {
			s.Close()
		}
	}()
	unit := media.TypeRawVideo30.Rate.UnitDuration()
	round := int64(0)
	idx := 0
	tick := func() {
		now := avtime.WorldTime(round) * unit
		for _, s := range ss {
			if _, err := s.ReadChunkTimeAt(idx, 1200, round, now, now); err != nil {
				t.Fatal(err)
			}
		}
		round++
		idx++
	}
	// Warm the round buffers, slot protocol and sink paths past the
	// first-use allocations.
	for idx < 40 {
		tick()
	}
	// AllocsPerRun runs the body runs+1 times; keep every run inside the
	// clip so no tick wraps around into a seek.
	allocs := testing.AllocsPerRun(frames-idx-2, tick)
	if allocs != 0 {
		t.Errorf("scheduled read path allocates %.1f times per round, want 0", allocs)
	}
}

// TestOpenStreamAllocsIndependentOfLength: opening a scheduled stream
// builds no per-chunk state, so it costs the same few allocations on an
// 800-sample audio segment as on an 80 000-sample one.  The chunk layout
// appears at the first chunk-indexed read, never for a stream read by
// size alone.
func TestOpenStreamAllocsIndependentOfLength(t *testing.T) {
	open := func(samples int) float64 {
		dm := device.NewManager()
		if err := dm.Register(device.NewDisk("d", 64_000_000, 8*media.MBPerSecond, avtime.Millisecond)); err != nil {
			t.Fatal(err)
		}
		st := NewStore(dm)
		st.SetStriping(StripePolicy{Rounds: true})
		a := media.NewAudioValue(media.TypeCDAudio, 2)
		if err := a.AppendSamples(make([]int16, 2*samples)); err != nil {
			t.Fatal(err)
		}
		seg, err := st.Place(a, "d")
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ReadTime(4096); err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
		if seg.chunkDev != nil {
			t.Fatalf("%d samples: streams read by size built a chunk map", samples)
		}
		s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.ReadChunkTimeAt(0, 4, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		if len(seg.chunkDev) != samples || len(seg.chunkTrck) != samples {
			t.Fatalf("%d samples: the first chunk read left a %d-chunk map, %d tracks", samples, len(seg.chunkDev), len(seg.chunkTrck))
		}
		return allocs
	}
	short, long := open(800), open(80_000)
	if long != short || long > 8 {
		t.Errorf("open+read+close allocates %.0f times at 800 samples, %.0f at 80 000; want the same, at most 8", short, long)
	}
}

// TestCacheHitAllocs is the companion gate for the PR-3 cache path: a
// read served from a resident chunk is a map probe plus an LRU bump and
// must not allocate either.
func TestCacheHitAllocs(t *testing.T) {
	dm := device.NewManager()
	d := device.NewDisk("d", 4_000_000, 8*media.MBPerSecond, 10*avtime.Millisecond)
	if err := dm.Register(d); err != nil {
		t.Fatal(err)
	}
	st := NewStore(dm)
	st.SetCachePolicy(CachePolicy{Capacity: 8})
	v := media.NewVideoValue(media.TypeRawVideo30, 40, 30, 8)
	for i := 0; i < 8; i++ {
		if err := v.AppendFrame(media.NewFrame(40, 30, 8)); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := st.Place(v, "d")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Fault every chunk in, then hammer hits.
	for i := 0; i < 8; i++ {
		if _, err := s.ReadChunkTimeAt(i, 1200, -1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	idx := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.ReadChunkTimeAt(idx%8, 1200, -1, 0, 0); err != nil {
			t.Fatal(err)
		}
		idx++
	})
	if allocs != 0 {
		t.Errorf("cache-hit read path allocates %.1f times per read, want 0", allocs)
	}
	if stats := s.CacheStats(); stats.Hits == 0 {
		t.Fatalf("fixture never hit the cache: %+v", stats)
	}
}
