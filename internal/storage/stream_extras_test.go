package storage

// stream_extras_test.go covers the smaller stream and pool surfaces
// around the hierarchy work: degraded payload fractions shortening
// scheduled rounds, failover accounting on the round scheduler, sink
// swaps reaching the pool and scheduler, same-round own-window hits,
// and the policy/rendering helpers.

import (
	"strings"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/obs"
)

// TestStreamPayloadFractionShortensRounds pins SetPayloadBytes: a
// degraded consumer ignoring half the encoded data must make the
// scheduled prefetches transfer half the bytes, so the same read
// sequence costs strictly less device time — and restoring the full
// payload restores the full cost exactly.
func TestStreamPayloadFractionShortensRounds(t *testing.T) {
	run := func(payload func(seg *Segment) int64) avtime.WorldTime {
		_, st := stripeRig(t, 2)
		st.SetStriping(StripePolicy{Seeks: true, Rounds: true})
		seg, err := st.PlaceStriped(clip(t, 20), 2*media.MBPerSecond, 2)
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := st.OpenStream(seg.ID(), 2*media.MBPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if payload != nil {
			s.SetPayloadBytes(payload(seg))
		}
		unit := media.TypeRawVideo30.Rate.UnitDuration()
		var total avtime.WorldTime
		for i := 0; i < 20; i++ {
			now := avtime.WorldTime(i) * unit
			dt, err := s.ReadChunkTimeAt(i, 1200, int64(i), now, now)
			if err != nil {
				t.Fatal(err)
			}
			total += dt
		}
		return total
	}
	full := run(nil)
	half := run(func(seg *Segment) int64 { return seg.Size() / 2 })
	if half >= full {
		t.Errorf("half-payload total %v not below full-payload %v", half, full)
	}
	// A payload at (or past) the stored size means nothing is ignored.
	restored := run(func(seg *Segment) int64 { return seg.Size() })
	if restored != full {
		t.Errorf("full-size payload total %v != undegraded %v", restored, full)
	}
	// Zero means "unknown": full-chunk reads, same cost.
	if zeroed := run(func(*Segment) int64 { return 0 }); zeroed != full {
		t.Errorf("zero payload total %v != undegraded %v", zeroed, full)
	}
}

// TestScheduledFailoverCountsInIOStats reads a replicated value through
// SCAN-EDF rounds while its primary home is down: the redirected read
// must land in the scheduler's failover counter, not just the sink.
func TestScheduledFailoverCountsInIOStats(t *testing.T) {
	dm, st := stripeRig(t, 4)
	st.SetStriping(StripePolicy{Seeks: true, Rounds: true})
	st.SetTierPolicy(TierPolicy{Replicas: ReplicaPolicy{Copies: 2, PromoteAt: 1}})
	seg, err := st.PlaceStriped(clip(t, 12), 2*media.MBPerSecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStreamTiered(seg.ID(), 2*media.MBPerSecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dm.SetFaultHook(downHook{down: map[string]bool{diskID(0): true}})
	unit := media.TypeRawVideo30.Rate.UnitDuration()
	for i := 0; i < 12; i++ {
		now := avtime.WorldTime(i) * unit
		if _, err := s.ReadChunkTimeAt(i, 1200, int64(i), now, now); err != nil {
			t.Fatalf("chunk %d with a live replica: %v", i, err)
		}
	}
	if got := st.IOStats().Failovers; got == 0 {
		t.Error("scheduler recorded no failovers for reads off a dead primary")
	}
}

// TestSinkSwapReachesPoolAndScheduler installs the sink after the pool
// and scheduler already exist: counters from reads made afterwards must
// flow to the new sink.
func TestSinkSwapReachesPoolAndScheduler(t *testing.T) {
	_, st := stripeRig(t, 2)
	st.SetCachePolicy(CachePolicy{Capacity: 4, Lookahead: 2})
	st.SetStriping(StripePolicy{Seeks: true, Rounds: true})
	seg, err := st.PlaceStriped(clip(t, 10), 2*media.MBPerSecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStream(seg.ID(), 2*media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	unit := media.TypeRawVideo30.Rate.UnitDuration()
	if _, err := s.ReadChunkTimeAt(0, 1200, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// The pool and scheduler were built sink-less; swap one in mid-run.
	col := obs.NewCollector()
	st.SetSink(col)
	for i := 1; i < 10; i++ {
		now := avtime.WorldTime(i) * unit
		if _, err := s.ReadChunkTimeAt(i, 1200, int64(i), now, now); err != nil {
			t.Fatal(err)
		}
	}
	snap := col.Snapshot()
	if snap.Counter("storage.pool.hits") == 0 {
		t.Error("pool hits after the sink swap did not reach the new sink")
	}
	if snap.Counter("storage.iosched.rounds") == 0 {
		t.Error("scheduler rounds after the sink swap did not reach the new sink")
	}
}

// TestSinkReinstallReachesOnlyTheNewSink re-installs a sink over one
// that already holds the store's, pool's and scheduler's handles:
// everything counted afterwards — a stream opened after the swap, its
// reads, pool hits and misses, scheduler rounds — reaches the second
// collector, and the first one does not move.
func TestSinkReinstallReachesOnlyTheNewSink(t *testing.T) {
	_, st := stripeRig(t, 2)
	st.SetCachePolicy(CachePolicy{Capacity: 4, Lookahead: 2})
	st.SetStriping(StripePolicy{Seeks: true, Rounds: true})
	seg, err := st.PlaceStriped(clip(t, 10), 2*media.MBPerSecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	unit := media.TypeRawVideo30.Rate.UnitDuration()
	play := func(base int64) {
		s, _, err := st.OpenStream(seg.ID(), 2*media.MBPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 10; i++ {
			round := base + int64(i)
			now := avtime.WorldTime(round) * unit
			if _, err := s.ReadChunkTimeAt(i, 1200, round, now, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	names := []string{
		"storage.streams_opened", "storage.reads", "storage.read_bytes",
		"storage.pool.hits", "storage.pool.misses", "storage.iosched.rounds",
	}
	first, second := obs.NewCollector(), obs.NewCollector()
	st.SetSink(first)
	play(0)
	snap := first.Snapshot()
	for _, name := range names {
		if snap.Counter(name) == 0 {
			t.Fatalf("%s before the swap did not reach the first sink", name)
		}
	}
	before := snap.MetricsText()
	st.SetSink(second)
	play(10)
	if after := first.Snapshot().MetricsText(); after != before {
		t.Errorf("the first sink moved after the swap:\nbefore %s\nafter %s", before, after)
	}
	snap = second.Snapshot()
	for _, name := range names {
		if snap.Counter(name) == 0 {
			t.Errorf("%s after the swap did not reach the second sink", name)
		}
	}
}

// TestPolicyEnabledAndSegmentStrings pins the policy switches and the
// segment rendering for each placement shape.
func TestPolicyEnabledAndSegmentStrings(t *testing.T) {
	if (TierPolicy{}).Enabled() {
		t.Error("zero tier policy reports enabled")
	}
	if !(TierPolicy{PromoteAt: 1}).Enabled() || !(TierPolicy{Replicas: ReplicaPolicy{Copies: 2}}).Enabled() {
		t.Error("promotion-only and replication-only tier policies must report enabled")
	}

	_, st := tierRig(t, 2)
	onDisc, err := st.PlaceOnDisc(clip(t, 2), "jb0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := onDisc.String(); !strings.Contains(got, "disc 1") {
		t.Errorf("jukebox segment renders %q, want the disc", got)
	}
	striped, err := st.PlaceStriped(clip(t, 4), media.MBPerSecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := striped.String(); !strings.Contains(got, "striped over") {
		t.Errorf("striped segment renders %q, want the stripe", got)
	}
	plain, err := st.Place(clip(t, 2), diskID(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.String(); !strings.Contains(got, "on "+diskID(0)) || strings.Contains(got, "disc") {
		t.Errorf("plain segment renders %q, want just the device", got)
	}
}
