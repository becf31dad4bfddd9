package experiment

import (
	"fmt"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/core"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
	"avdb/internal/storage"
)

// tenancyOutcome is what one way of running a tenancy cost.
type tenancyOutcome struct {
	bytes int64
	wall  avtime.WorldTime // virtual time when the last session finished
	io    storage.IOStats
}

// runTenancy plays n sessions over one clip of frames frames, striped
// over four disks with positional geometry (10 ms seeks over 16 tracks,
// 1 ms settle) under SCAN-EDF rounds.  Each disk holds twice its quarter
// of the clip, so the stripe spans half its tracks.  Shared admits every
// session into the same engine step; otherwise each playback runs to
// completion before the next starts.
func runTenancy(t *testing.T, frames, n int, shared bool) tenancyOutcome {
	t.Helper()
	const width = 4
	clip := ablationClip(frames)
	db, err := core.Open(core.Config{
		Name:      "tenancy",
		Resources: sched.Resources{Buffers: 8*n + 16, CPU: 100 * media.MBPerSecond, Bus: 100 * media.MBPerSecond},
		Striping:  storage.StripePolicy{Width: width, Seeks: true, Rounds: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < width; i++ {
		d := device.NewDisk(fmt.Sprintf("disk%d", i), 2*clip.Size()/width+clip.Size()/int64(frames),
			media.DataRate(n)*media.MBPerSecond, 10*avtime.Millisecond)
		if err := d.SetGeometry(16, avtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := db.Devices().Register(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Network().AddLink(netsim.NewLink("lan0", media.DataRate(n+1)*media.MBPerSecond, 2*avtime.Millisecond, 0, 21)); err != nil {
		t.Fatal(err)
	}
	defineClip(t, db)
	oid := newClip(t, db, clip)
	if _, err := db.PlaceMediaStriped(oid, "videoTrack", media.MBPerSecond, width); err != nil {
		t.Fatal(err)
	}
	streams := make([]*stream, n)
	for i := range streams {
		streams[i] = bindStream(t, db, fmt.Sprintf("tenant-%d", i), "lan0", oid)
	}

	var out tenancyOutcome
	wait := func(pb *core.Playback) {
		stats, err := pb.Wait()
		if err != nil {
			t.Fatal(err)
		}
		out.bytes += stats.BytesMoved
	}
	if shared {
		db.Engine().Pause()
	}
	var pbs []*core.Playback
	for _, st := range streams {
		pb, err := st.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		if shared {
			pbs = append(pbs, pb)
		} else {
			wait(pb)
		}
	}
	if shared {
		db.Engine().Resume()
		for _, pb := range pbs {
			wait(pb)
		}
	}
	out.wall = db.Clock().Now()
	out.io = db.MediaIOStats()
	for _, st := range streams {
		if err := st.sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestTenancySharedBeatsSerial holds the multi-session engine's claim at
// the disk: once two or more sessions stream one clip, admitting them
// together merges their per-tick chunk requests into shared SCAN-EDF
// rounds.  Compared with the same sessions run back to back, that moves
// the same bytes, charges fewer seeks, finishes in less virtual time,
// and puts every session's request into one disk batch.
func TestTenancySharedBeatsSerial(t *testing.T) {
	const frames = 45
	for _, n := range []int{2, 4} {
		sh, se := runTenancy(t, frames, n, true), runTenancy(t, frames, n, false)
		if sh.bytes != se.bytes {
			t.Errorf("%d sessions: shared moved %d bytes, serial %d", n, sh.bytes, se.bytes)
		}
		if sh.io.SeeksCharged >= se.io.SeeksCharged {
			t.Errorf("%d sessions: shared rounds charged %d seeks, serial %d: sharing must cost fewer",
				n, sh.io.SeeksCharged, se.io.SeeksCharged)
		}
		if sh.io.SeeksSaved == 0 {
			t.Errorf("%d sessions: shared rounds saved no seeks; requests were not batched", n)
		}
		if sh.wall >= se.wall {
			t.Errorf("%d sessions: shared wall %v not below serial wall %v", n, sh.wall, se.wall)
		}
		if sh.io.MaxBatch < n {
			t.Errorf("%d sessions: max batch %d never merged every session into one round", n, sh.io.MaxBatch)
		}
		t.Logf("%d sessions: seeks %d vs %d, wall %v vs %v, max batch %d", n,
			sh.io.SeeksCharged, se.io.SeeksCharged, sh.wall, se.wall, sh.io.MaxBatch)
	}
}

// audienceRun is one co-admitted audience played to completion.
type audienceRun struct {
	bytes int64
	cache []storage.CacheStats // per session, in admission order, read before close
	wall  avtime.WorldTime     // virtual time when the last session finished
}

// playAudience plays audience[k] sessions over clip k (15+4k frames,
// each on disk0 of a default platform) under the given buffer-pool
// policy.  Every session is admitted into the same first engine step.
func playAudience(t *testing.T, audience []int, cache storage.CachePolicy) audienceRun {
	t.Helper()
	db, err := core.OpenDefault("zipf", core.PlatformConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db.Storage().SetCachePolicy(cache)
	defineClip(t, db)
	var streams []*stream
	for k, n := range audience {
		oid := newClip(t, db, ablationClip(15+4*k))
		if _, err := db.PlaceMedia(oid, "videoTrack", "disk0", media.MBPerSecond); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			streams = append(streams, bindStream(t, db, fmt.Sprintf("viewer-%d-%d", k, i), "lan0", oid))
		}
	}
	db.Engine().Pause()
	var pbs []*core.Playback
	for _, st := range streams {
		pb, err := st.sess.Start()
		if err != nil {
			t.Fatal(err)
		}
		pbs = append(pbs, pb)
	}
	db.Engine().Resume()
	var run audienceRun
	for i, pb := range pbs {
		stats, err := pb.Wait()
		if err != nil {
			t.Fatal(err)
		}
		run.bytes += stats.BytesMoved
		run.cache = append(run.cache, streams[i].sess.CacheStats())
	}
	run.wall = db.Clock().Now()
	for _, st := range streams {
		if err := st.sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// TestZipfPooledArms holds the shared buffer pool's claim: the sessions
// of a clip with two or more viewers (its cohort) hit the pool on most
// reads, some of those hits land on chunks another session staged, and
// the pooled audience moves at least the unpooled one's throughput.  A
// hot clip, a warm one and a single viewer share the pool.  That the
// pool is deterministic across repeats is the pooled input of core's
// TestEngineAudienceDeterminism.
func TestZipfPooledArms(t *testing.T) {
	audience := []int{4, 2, 1}
	pooled := playAudience(t, audience, storage.CachePolicy{Capacity: 8, Lookahead: 4})
	unpooled := playAudience(t, audience, storage.CachePolicy{})
	var hits, reads, shared int64
	i := 0
	for _, n := range audience {
		for j := 0; j < n; j++ {
			cs := pooled.cache[i]
			i++
			shared += cs.Shared
			if n >= 2 {
				hits += cs.Hits
				reads += cs.Hits + cs.Misses
			}
		}
	}
	if 2*hits <= reads {
		t.Errorf("cohort hit rate %d/%d, want > 50%%", hits, reads)
	}
	if shared == 0 {
		t.Error("no pool hit landed on a chunk another session staged")
	}
	throughput := func(r audienceRun) float64 { return float64(r.bytes) / float64(r.wall) }
	if p, u := throughput(pooled), throughput(unpooled); p < u {
		t.Errorf("pooled throughput %.3g B/ns under unpooled %.3g", p, u)
	}
	t.Logf("cohort hits %d/%d, shared %d, wall pooled %v unpooled %v", hits, reads, shared, pooled.wall, unpooled.wall)
}
