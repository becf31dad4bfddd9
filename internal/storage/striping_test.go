package storage

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/obs"
)

// stripeRig builds a store over n identical disks with a positional
// geometry, the shape PlaceStriped and the round scheduler target.
func stripeRig(t testing.TB, n int) (*device.Manager, *Store) {
	t.Helper()
	dm := device.NewManager()
	for i := 0; i < n; i++ {
		d := device.NewDisk(diskID(i), 4_000_000, 8*media.MBPerSecond, 10*avtime.Millisecond)
		if err := d.SetGeometry(16, avtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := dm.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	return dm, NewStore(dm)
}

func diskID(i int) string { return string(rune('a'+i)) + "disk" }

func rigDisk(t *testing.T, dm *device.Manager, id string) *device.Disk {
	t.Helper()
	d, ok := dm.Get(id)
	if !ok {
		t.Fatalf("no device %q", id)
	}
	return d.(*device.Disk)
}

func TestPlaceStripedRoundRobin(t *testing.T) {
	dm, st := stripeRig(t, 4)
	v := clip(t, 12) // 1200 B/frame
	seg, err := st.PlaceStriped(v, 4*media.MBPerSecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Striped() {
		t.Fatal("segment not marked striped")
	}
	stripe := seg.stripe
	if len(stripe) != 4 {
		t.Fatalf("stripe spans %d disks, want 4", len(stripe))
	}
	// Chunks interleave round-robin and offsets advance per home disk.
	for i := 0; i < 12; i++ {
		if seg.chunkDev[i] != i%4 {
			t.Errorf("chunk %d home %d, want %d", i, seg.chunkDev[i], i%4)
		}
		if want := int64(i/4) * 1200; seg.chunkOff[i] != want {
			t.Errorf("chunk %d offset %d, want %d", i, seg.chunkOff[i], want)
		}
	}
	// Every stripe disk carries exactly its share of the bytes.
	var sum int64
	for k, id := range stripe {
		d := rigDisk(t, dm, id)
		if d.Used() != seg.perDev[k] {
			t.Errorf("disk %s used %d, want %d", id, d.Used(), seg.perDev[k])
		}
		sum += d.Used()
	}
	if sum != v.Size() {
		t.Errorf("stripe allocations sum to %d, want %d", sum, v.Size())
	}
	// An unstriped placement reports no stripe.
	plain, err := st.PlaceAuto(clip(t, 4), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Striped() || plain.stripe != nil {
		t.Error("unstriped segment reports a stripe")
	}
}

func TestPlaceStripedEligibility(t *testing.T) {
	_, st := stripeRig(t, 2)
	if _, err := st.PlaceStriped(clip(t, 4), media.MBPerSecond, 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := st.PlaceStriped(clip(t, 4), -media.MBPerSecond, 2); err == nil {
		t.Error("negative rate accepted")
	}
	// More disks demanded than qualify.
	if _, err := st.PlaceStriped(clip(t, 4), media.MBPerSecond, 3); !errors.Is(err, ErrNoPlacement) {
		t.Errorf("width 3 over 2 disks: %v, want ErrNoPlacement", err)
	}
	// Disks short on bandwidth shares don't qualify.
	if _, err := st.PlaceStriped(clip(t, 4), 100*media.MBPerSecond, 2); !errors.Is(err, ErrNoPlacement) {
		t.Errorf("oversized rate: %v, want ErrNoPlacement", err)
	}
	// Width 1 degenerates to plain auto placement.
	seg, err := st.PlaceStriped(clip(t, 4), media.MBPerSecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Striped() {
		t.Error("width-1 placement came back striped")
	}
}

func TestPlaceStripedRollbackOnAllocateFailure(t *testing.T) {
	// One disk too small for its share: bandwidth qualifies it, Allocate
	// fails mid-placement, and every prior allocation must roll back.
	dm := device.NewManager()
	big := device.NewDisk("big", 4_000_000, 8*media.MBPerSecond, 10*avtime.Millisecond)
	tiny := device.NewDisk("tiny", 100, 8*media.MBPerSecond, 10*avtime.Millisecond)
	for _, d := range []device.Device{big, tiny} {
		if err := dm.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	st := NewStore(dm)
	if _, err := st.PlaceStriped(clip(t, 10), media.MBPerSecond, 2); err == nil {
		t.Fatal("placement over a full disk succeeded")
	}
	if big.Used() != 0 || tiny.Used() != 0 {
		t.Errorf("leaked allocations after failed striping: big=%d tiny=%d", big.Used(), tiny.Used())
	}
}

func TestShareRateSplitsExactly(t *testing.T) {
	for _, tc := range []struct {
		rate  media.DataRate
		width int
	}{{10, 3}, {7, 2}, {1_000_003, 4}, {5, 5}, {4, 8}} {
		shares := shareRate(tc.rate, tc.width)
		var sum media.DataRate
		for _, s := range shares {
			sum += s
		}
		if sum != tc.rate {
			t.Errorf("shareRate(%d, %d) sums to %d", tc.rate, tc.width, sum)
		}
		if shares[0]-shares[tc.width-1] > 1 {
			t.Errorf("shareRate(%d, %d) uneven: %v", tc.rate, tc.width, shares)
		}
	}
}

func TestStripedStreamReservesAndReleasesShares(t *testing.T) {
	dm, st := stripeRig(t, 3)
	seg, err := st.PlaceStriped(clip(t, 9), 3*media.MBPerSecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	rate := 3 * media.MBPerSecond
	s, startup, err := st.OpenStream(seg.ID(), rate)
	if err != nil {
		t.Fatal(err)
	}
	if startup == 0 {
		t.Error("striped open reported zero startup")
	}
	var reserved media.DataRate
	for _, id := range seg.stripe {
		d := rigDisk(t, dm, id)
		if d.ReservedBandwidth() != rate/3 {
			t.Errorf("disk %s reserved %v, want %v", id, d.ReservedBandwidth(), rate/3)
		}
		reserved += d.ReservedBandwidth()
	}
	if reserved != rate {
		t.Errorf("stripe reservations sum to %v, want %v", reserved, rate)
	}
	s.Close()
	s.Close() // double close must not double-release
	for _, id := range seg.stripe {
		if d := rigDisk(t, dm, id); d.ReservedBandwidth() != 0 {
			t.Errorf("disk %s still reserves %v after close", id, d.ReservedBandwidth())
		}
	}
}

func TestStripedOpenRollsBackOnReserveFailure(t *testing.T) {
	dm, st := stripeRig(t, 2)
	seg, err := st.PlaceStriped(clip(t, 4), media.MBPerSecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the second stripe disk so its share reservation fails.
	hog := rigDisk(t, dm, seg.stripe[1])
	if err := hog.Reserve(8 * media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.OpenStream(seg.ID(), 2*media.MBPerSecond); err == nil {
		t.Fatal("open succeeded past a saturated stripe disk")
	}
	if d := rigDisk(t, dm, seg.stripe[0]); d.ReservedBandwidth() != 0 {
		t.Errorf("first stripe disk leaked %v after failed open", d.ReservedBandwidth())
	}
}

// Satellite (a): load-aware auto placement is deterministic — most free
// bandwidth, then most free capacity, then lowest device ID.
func TestPlaceAutoLoadAwareDeterministicOrder(t *testing.T) {
	dm := device.NewManager()
	mk := func(id string, capacity int64, bw media.DataRate) *device.Disk {
		d := device.NewDisk(id, capacity, bw, 10*avtime.Millisecond)
		if err := dm.Register(d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	// c beats a and b on free bandwidth; among a and b, b has more
	// capacity; a wins only by ID once everything else ties.
	a := mk("a", 1_000_000, 4*media.MBPerSecond)
	mk("b", 2_000_000, 4*media.MBPerSecond)
	mk("c", 1_000_000, 6*media.MBPerSecond)
	st := NewStore(dm)

	place := func() string {
		t.Helper()
		seg, err := st.PlaceAuto(clip(t, 1), media.MBPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Delete(seg.ID()); err != nil {
			t.Fatal(err)
		}
		return seg.devID
	}
	if got := place(); got != "c" {
		t.Errorf("free bandwidth should win: placed on %q, want c", got)
	}
	// Drain c below the others: bandwidth tie between a and b, b has
	// more free capacity.
	cd := rigDisk(t, dm, "c")
	if err := cd.Reserve(3 * media.MBPerSecond); err != nil {
		t.Fatal(err)
	}
	if got := place(); got != "b" {
		t.Errorf("capacity should break the bandwidth tie: placed on %q, want b", got)
	}
	// Level the capacities too: the ID breaks the final tie.
	if err := a.Allocate(0); err != nil { // no-op, a stays eligible
		t.Fatal(err)
	}
	bd := rigDisk(t, dm, "b")
	if err := bd.Allocate(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := place(); got != "a" {
		t.Errorf("ID should break the full tie: placed on %q, want a", got)
	}
	// The order is stable across repeated calls.
	for i := 0; i < 5; i++ {
		if got := place(); got != "a" {
			t.Fatalf("placement order not deterministic: got %q on try %d", got, i)
		}
	}
}

// Satellite (b): Move/Delete error paths must not leak space, and a
// stream's bandwidth release must follow the reservation, not the
// segment's current placement.
func TestDeleteTwiceFreesOnce(t *testing.T) {
	dm, st := testRig(t)
	seg, err := st.Place(clip(t, 10), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	d0 := rigDisk(t, dm, "disk0")
	if err := st.Delete(seg.ID()); err != nil {
		t.Fatal(err)
	}
	if d0.Used() != 0 {
		t.Fatalf("delete left %d bytes allocated", d0.Used())
	}
	if err := st.Delete(seg.ID()); !errors.Is(err, ErrNoSegment) {
		t.Errorf("second delete: %v, want ErrNoSegment", err)
	}
	if d0.Used() != 0 {
		t.Errorf("double delete corrupted accounting: used=%d", d0.Used())
	}
}

func TestMoveAfterDeleteLeaksNothing(t *testing.T) {
	dm, st := testRig(t)
	seg, err := st.Place(clip(t, 10), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(seg.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Move(seg.ID(), "disk1"); !errors.Is(err, ErrNoSegment) {
		t.Errorf("move of deleted segment: %v, want ErrNoSegment", err)
	}
	if d1 := rigDisk(t, dm, "disk1"); d1.Used() != 0 {
		t.Errorf("move of deleted segment leaked %d bytes on destination", d1.Used())
	}
}

func TestMoveStripedRefused(t *testing.T) {
	dm, st := stripeRig(t, 2)
	seg, err := st.PlaceStriped(clip(t, 8), media.MBPerSecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Move(seg.ID(), diskID(0)); !errors.Is(err, ErrStriped) {
		t.Errorf("move of striped segment: %v, want ErrStriped", err)
	}
	// The refusal left the stripe allocations intact.
	var sum int64
	for _, id := range seg.stripe {
		sum += rigDisk(t, dm, id).Used()
	}
	if sum != seg.Size() {
		t.Errorf("refused move disturbed allocations: %d, want %d", sum, seg.Size())
	}
}

func TestDeleteStripedFreesEveryShare(t *testing.T) {
	dm, st := stripeRig(t, 3)
	seg, err := st.PlaceStriped(clip(t, 10), media.MBPerSecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	stripe := seg.stripe
	if err := st.Delete(seg.ID()); err != nil {
		t.Fatal(err)
	}
	for _, id := range stripe {
		if d := rigDisk(t, dm, id); d.Used() != 0 {
			t.Errorf("disk %s still holds %d bytes after striped delete", id, d.Used())
		}
	}
}

func TestCloseReleasesOnOriginalDeviceAfterMove(t *testing.T) {
	dm, st := testRig(t)
	seg, err := st.Place(clip(t, 10), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Move(seg.ID(), "disk1"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	d0, d1 := rigDisk(t, dm, "disk0"), rigDisk(t, dm, "disk1")
	if d0.ReservedBandwidth() != 0 {
		t.Errorf("disk0 leaked %v bandwidth: close released on the moved-to device", d0.ReservedBandwidth())
	}
	if d1.ReservedBandwidth() != 0 {
		t.Errorf("disk1 reserves %v it never granted", d1.ReservedBandwidth())
	}
}

// ---- round scheduler ----

func TestIOSchedBatchAmortizesSeeks(t *testing.T) {
	d := device.NewDisk("d", 1_000_000, 8*media.MBPerSecond, 10*avtime.Millisecond)
	if err := d.SetGeometry(16, avtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	io := newIOSched(nil)
	// Three streams, adjacent tracks, same deadline: one positioned seek
	// for the run, the rest ride for free.
	slots := make([]ioSlot, 3)
	for sid := int64(0); sid < 3; sid++ {
		io.submit(ioReq{sid: sid, chunk: 5, bytes: 1200, disk: d, track: 4 + int(sid),
			rate: media.MBPerSecond, now: 0, deadline: avtime.Second, slot: &slots[sid]})
	}
	io.closeRound()
	st := io.stats
	if st.Rounds != 1 || st.Batches != 1 || st.Scheduled != 3 {
		t.Errorf("stats %+v, want 1 round, 1 batch, 3 scheduled", st)
	}
	if st.SeeksCharged != 1 || st.SeeksSaved != 2 {
		t.Errorf("seeks charged=%d saved=%d, want 1/2", st.SeeksCharged, st.SeeksSaved)
	}
	if st.MaxBatch != 3 {
		t.Errorf("max batch %d, want 3", st.MaxBatch)
	}
	// Every stream finds its serviced result, and the run's followers
	// are strictly cheaper than its opener.
	first, ok := slots[0].take(5)
	if !ok {
		t.Fatal("stream 0's result missing")
	}
	for sid := int64(1); sid < 3; sid++ {
		cost, ok := slots[sid].take(5)
		if !ok {
			t.Fatalf("stream %d's result missing", sid)
		}
		if cost >= first {
			t.Errorf("follower %d cost %v, want < opener's %v", sid, cost, first)
		}
	}
}

func TestIOSchedScanEDFOrder(t *testing.T) {
	d := device.NewDisk("d", 1_000_000, 8*media.MBPerSecond, 10*avtime.Millisecond)
	if err := d.SetGeometry(16, avtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	// An urgent request on a far track must be serviced before a relaxed
	// one near the head: deadline dominates track position.
	io := newIOSched(nil)
	io.heads[d] = 0
	slots := make([]ioSlot, 2)
	io.submit(ioReq{sid: 0, chunk: 1, bytes: 1200, disk: d, track: 15,
		rate: media.MBPerSecond, now: 0, deadline: avtime.Millisecond, slot: &slots[0]})
	io.submit(ioReq{sid: 1, chunk: 1, bytes: 1200, disk: d, track: 1,
		rate: media.MBPerSecond, now: 0, deadline: avtime.Second, slot: &slots[1]})
	io.closeRound()
	// Head finished at the relaxed request's track — it went last.
	if io.heads[d] != 1 {
		t.Errorf("head at track %d, want 1 (EDF must outrank SCAN)", io.heads[d])
	}
	urgent, _ := slots[0].take(1)
	relaxed, _ := slots[1].take(1)
	// The urgent stream paid the full 0->15 sweep; the relaxed one paid
	// the shorter 15->1 return, cheaper than a cold full-span seek.
	if urgent <= relaxed {
		t.Errorf("urgent cost %v <= relaxed %v; order looks track-first", urgent, relaxed)
	}
	// The deadline miss on the urgent request was counted: a 1ms
	// deadline cannot absorb a full-span seek.
	if st := io.stats; st.DeadlineMisses != 1 {
		t.Errorf("deadline misses %d, want 1", st.DeadlineMisses)
	}
}

func TestIOSchedStaleAndStragglerRequests(t *testing.T) {
	d := device.NewDisk("d", 1_000_000, 8*media.MBPerSecond, 10*avtime.Millisecond)
	io := newIOSched(nil)
	var slot ioSlot
	io.submit(ioReq{sid: 7, chunk: 3, bytes: 1200, disk: d, rate: media.MBPerSecond, deadline: avtime.Second, slot: &slot})
	io.closeRound()
	// Taking the wrong chunk discards the stale result entirely.
	if _, ok := slot.take(9); ok {
		t.Error("stale result consumed for the wrong chunk")
	}
	if _, ok := slot.take(3); ok {
		t.Error("discarded result resurfaced")
	}

	// The store decides which reads belong to the open round.  A read
	// tagged with no round, a straggler into the closed round 0 and a
	// read ahead into round 2 neither take the result serviced for the
	// open round 1 nor submit, so the consumer falls back to a demand
	// read instead of waiting, and the read in round 1 still finds it.
	_, st := testRig(t)
	seg, err := st.Place(clip(t, 8), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStreamWith(seg.ID(), media.MBPerSecond, StripePolicy{Rounds: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.ReadChunkTimeAt(0, 1200, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	st.CloseRound(0)
	for n, r := range []int64{-1, 0, 2} {
		if _, err := s.ReadChunkTimeAt(1, 1200, r, 0, 0); err != nil {
			t.Fatal(err)
		}
		if got := st.IOStats().Demand; got != int64(n+2) {
			t.Errorf("a read tagged round %d made %d demand reads in all, want %d", r, got, n+2)
		}
		if !s.slot.full || len(st.io.round.batches) != 0 {
			t.Errorf("a read tagged round %d, open 1, took the result or submitted", r)
		}
	}
	if _, err := s.ReadChunkTimeAt(1, 1200, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if io := st.IOStats(); io.Demand != 4 || io.Rounds != 1 {
		t.Errorf("the read in the open round lost its result: %+v", io)
	}
}

func TestScheduledStreamReadsThroughRounds(t *testing.T) {
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
	unit := media.TypeRawVideo30.Rate.UnitDuration()
	var total avtime.WorldTime
	for i := 0; i < 20; i++ {
		now := avtime.WorldTime(i) * unit
		dt, err := s.ReadChunkTimeAt(i, 1200, int64(i), now, now)
		if err != nil {
			t.Fatal(err)
		}
		st.CloseRound(int64(i))
		total += dt
	}
	stats := st.IOStats()
	if stats.Demand != 1 {
		t.Errorf("demand reads %d, want 1 (only the first chunk is unprefetched)", stats.Demand)
	}
	if stats.Scheduled != 19 {
		t.Errorf("scheduled reads %d, want 19", stats.Scheduled)
	}
	if stats.SeeksCharged+stats.SeeksSaved != 20 {
		t.Errorf("seek accounting incomplete: charged=%d saved=%d over 20 reads",
			stats.SeeksCharged, stats.SeeksSaved)
	}
	if s.bytes != 20*1200 {
		t.Errorf("bytes read %d, want %d", s.bytes, 20*1200)
	}

	// The same sequence on demand (round -1) charges a seek per chunk
	// and must cost strictly more.
	s2, _, err := st.OpenStream(seg.ID(), 2*media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var demand avtime.WorldTime
	for i := 0; i < 20; i++ {
		dt, err := s2.ReadChunkTimeAt(i, 1200, -1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		demand += dt
	}
	if total >= demand {
		t.Errorf("scheduled total %v >= demand total %v; rounds saved nothing", total, demand)
	}
}

// stripeArms are the three storage configurations the striped read path
// is compared under: demand reads on one disk, demand reads over a
// stripe, and SCAN-EDF service rounds over the same stripe.
var stripeArms = []struct {
	name   string
	width  int
	policy StripePolicy
}{
	{"single-demand", 1, StripePolicy{Seeks: true}},
	{"striped-demand", 4, StripePolicy{Seeks: true}},
	{"striped-scan-edf", 4, StripePolicy{Seeks: true, Rounds: true}},
}

// openStripeArm places one clip of frames frames per stream on width
// disks and opens a stream on each at its admission maximum: a disk
// carries streams MB/s, and a stream reserves 1 MB/s on every disk it
// spans.  Each disk holds twice the whole corpus, so on one disk the
// clips cover half its tracks.  The streams close at test cleanup.
func openStripeArm(t testing.TB, width int, policy StripePolicy, streams, frames int) (*Store, []*Stream) {
	t.Helper()
	dm := device.NewManager()
	for i := 0; i < width; i++ {
		d := device.NewDisk(diskID(i), 2*int64(streams*frames)*1200, media.DataRate(streams)*media.MBPerSecond, 10*avtime.Millisecond)
		if err := d.SetGeometry(16, avtime.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := dm.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	st := NewStore(dm)
	st.SetStriping(policy)
	rate := media.DataRate(width) * media.MBPerSecond
	ss := make([]*Stream, streams)
	for j := range ss {
		var seg *Segment
		var err error
		if width > 1 {
			seg, err = st.PlaceStriped(clip(t, frames), rate, width)
		} else {
			seg, err = st.Place(clip(t, frames), diskID(0))
		}
		if err != nil {
			t.Fatal(err)
		}
		if ss[j], _, err = st.OpenStream(seg.ID(), rate); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ss[j].Close)
	}
	return st, ss
}

// TestStripedRoundsBeatDemand holds the striped read path's claim: eight
// streams each read every frame of their own clip, one chunk per tick.
// Striping alone finishes sooner than one disk, and SCAN-EDF rounds over
// the stripe charge under half the demand arm's seeks, reach at least 3x
// the single-disk throughput and miss no deadline.  Every arm moves the
// same bytes, so throughput compares as the slowest stream's read time.
func TestStripedRoundsBeatDemand(t *testing.T) {
	const streams, frames = 8, 90
	unit := media.TypeRawVideo30.Rate.UnitDuration()
	wall := make([]avtime.WorldTime, len(stripeArms))
	io := make([]IOStats, len(stripeArms))
	for a, arm := range stripeArms {
		st, ss := openStripeArm(t, arm.width, arm.policy, streams, frames)
		per := make([]avtime.WorldTime, streams)
		for f := 0; f < frames; f++ {
			now := avtime.WorldTime(f) * unit
			for j, s := range ss {
				dt, err := s.ReadChunkTimeAt(f, 1200, int64(f), now, now)
				if err != nil {
					t.Fatal(err)
				}
				per[j] += dt
			}
			st.CloseRound(int64(f))
		}
		wall[a] = slices.Max(per)
		io[a] = st.IOStats()
	}
	single, demand, rounds := 0, 1, 2
	if wall[demand] >= wall[single] {
		t.Errorf("striped demand reads took %v, single disk %v: striping bought no throughput", wall[demand], wall[single])
	}
	if 2*io[rounds].SeeksCharged >= io[demand].SeeksCharged {
		t.Errorf("rounds charged %d seeks, demand %d: want under half", io[rounds].SeeksCharged, io[demand].SeeksCharged)
	}
	if speedup := float64(wall[single]) / float64(wall[rounds]); speedup < 3 {
		t.Errorf("rounds throughput %.2fx the single disk, want >= 3x", speedup)
	}
	if io[rounds].DeadlineMisses != 0 {
		t.Errorf("rounds missed %d deadlines, want 0", io[rounds].DeadlineMisses)
	}
	t.Logf("slowest stream: single %v, striped demand %v, rounds %v; seeks %d/%d/%d",
		wall[single], wall[demand], wall[rounds], io[single].SeeksCharged, io[demand].SeeksCharged, io[rounds].SeeksCharged)
}

// ---- satellite (c): chunk cache x striping ----

// TestCacheHitsSkipStripeHomeDisk: resident chunks are served at no
// device time and are not device reads; past the staged window the
// stripe home disk is read again.
func TestCacheHitsSkipStripeHomeDisk(t *testing.T) {
	_, st := stripeRig(t, 2)
	col := obs.NewCollector()
	st.SetSink(col)
	st.SetCachePolicy(CachePolicy{Capacity: 8, Lookahead: 3})
	st.SetStriping(StripePolicy{Seeks: true, Rounds: true})
	seg, err := st.PlaceStriped(clip(t, 12), 2*media.MBPerSecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStream(seg.ID(), 2*media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	unit := media.TypeRawVideo30.Rate.UnitDuration()
	read := func(i int) (avtime.WorldTime, error) {
		now := avtime.WorldTime(i) * unit
		defer st.CloseRound(int64(i))
		return s.ReadChunkTimeAt(i, 1200, int64(i), now, now)
	}
	// Chunk 0 misses and stages chunks 1..3.
	if _, err := read(0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		dt, err := read(i)
		if err != nil {
			t.Fatal(err)
		}
		if dt != 0 {
			t.Errorf("cache hit on chunk %d cost %v, want 0", i, dt)
		}
	}
	// Past the staged window the stripe disk is read.
	if dt, err := read(4); err != nil || dt == 0 {
		t.Fatalf("read past the cache: %v, %v; want a priced device read", dt, err)
	}
	cs := s.CacheStats()
	if cs.Hits != 3 {
		t.Errorf("hits %d, want 3", cs.Hits)
	}
	// Chunks 0 and 4 are the misses.
	if cs.Misses != 2 {
		t.Errorf("misses %d, want 2", cs.Misses)
	}
	snap := col.Snapshot()
	if got := snap.Counter("storage.pool.hits"); got != cs.Hits {
		t.Errorf("sink hits %d, stream stats %d", got, cs.Hits)
	}
	if got := snap.Counter("storage.pool.misses"); got != cs.Misses {
		t.Errorf("sink misses %d, stream stats %d", got, cs.Misses)
	}
	// Hits don't count as reads: only the device accesses do.
	if reads := snap.Counter("storage.reads"); reads != 2 {
		t.Errorf("storage.reads %d, want 2 (the two misses; hits are free)", reads)
	}
}

func TestCacheAndSchedulerCountersConsistent(t *testing.T) {
	_, st := stripeRig(t, 2)
	col := obs.NewCollector()
	st.SetSink(col)
	st.SetCachePolicy(CachePolicy{Capacity: 4, Lookahead: 2})
	st.SetStriping(StripePolicy{Seeks: true, Rounds: true})
	seg, err := st.PlaceStriped(clip(t, 30), 2*media.MBPerSecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStream(seg.ID(), 2*media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	unit := media.TypeRawVideo30.Rate.UnitDuration()
	for i := 0; i < 30; i++ {
		now := avtime.WorldTime(i) * unit
		if _, err := s.ReadChunkTimeAt(i, 1200, int64(i), now, now); err != nil {
			t.Fatal(err)
		}
		st.CloseRound(int64(i))
	}
	cs, io := s.CacheStats(), st.IOStats()
	if io.Rounds == 0 {
		t.Error("no round was serviced")
	}
	if cs.Hits+cs.Misses != 30 {
		t.Errorf("hits %d + misses %d != 30 reads", cs.Hits, cs.Misses)
	}
	// Every miss went to a device, either through a round or on demand;
	// scheduled results consumed while resident are dropped, never
	// double-counted.
	if io.Demand+consumedScheduled(io) < cs.Misses {
		t.Errorf("device reads (demand %d + scheduled %d) < misses %d",
			io.Demand, consumedScheduled(io), cs.Misses)
	}
	snap := col.Snapshot()
	if got := snap.Counter("storage.iosched.scheduled"); got != io.Scheduled {
		t.Errorf("sink scheduled %d, stats %d", got, io.Scheduled)
	}
	if got := snap.Counter("storage.iosched.demand"); got != io.Demand {
		t.Errorf("sink demand %d, stats %d", got, io.Demand)
	}
	if got := snap.Counter("storage.iosched.rounds"); got != io.Rounds {
		t.Errorf("sink rounds %d, stats %d", got, io.Rounds)
	}
	if got := snap.Counter("storage.pool.hits"); got != cs.Hits {
		t.Errorf("sink hits %d, stats %d", got, cs.Hits)
	}
}

// consumedScheduled bounds how many scheduled services could have fed
// reads (each round services at most one request per stream).
func consumedScheduled(io IOStats) int64 { return io.Scheduled }

// readRoundsConcurrently reads chunk i of every stream in round i,
// each read on its own goroutine, and closes each round once all its
// reads are in: the engine's step barrier, with the step's reads racing.
func readRoundsConcurrently(t *testing.T, st *Store, ss []*Stream, frames int) {
	t.Helper()
	unit := media.TypeRawVideo30.Rate.UnitDuration()
	for i := 0; i < frames; i++ {
		now := avtime.WorldTime(i) * unit
		var wg sync.WaitGroup
		for _, s := range ss {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.ReadChunkTimeAt(i, 1200, int64(i), now, now); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		st.CloseRound(int64(i))
	}
}

func TestStripedConcurrentStreamsRace(t *testing.T) {
	// Many striped streams sharing one scheduler and one pool, each round's
	// reads racing on their own goroutines.  Run under -race.
	_, st := stripeRig(t, 4)
	st.SetSink(obs.NewCollector())
	st.SetCachePolicy(CachePolicy{Capacity: 8, Lookahead: 2})
	st.SetStriping(StripePolicy{Seeks: true, Rounds: true})
	const frames = 40
	ss := make([]*Stream, 8)
	for w := range ss {
		seg, err := st.PlaceStriped(clip(t, frames), media.MBPerSecond, 4)
		if err != nil {
			t.Fatal(err)
		}
		if ss[w], _, err = st.OpenStream(seg.ID(), media.MBPerSecond); err != nil {
			t.Fatal(err)
		}
		defer ss[w].Close()
	}
	readRoundsConcurrently(t, st, ss, frames)
	if io := st.IOStats(); io.Scheduled == 0 || io.Demand == 0 {
		t.Errorf("reads missed a path: %+v", io)
	}
}

// TestLazyLayoutConcurrentStreamsRace: two scheduled streams on one
// unstriped segment race to build its chunk layout at their first chunk
// read, then keep reading it.  Run under -race.
func TestLazyLayoutConcurrentStreamsRace(t *testing.T) {
	dm := device.NewManager()
	d := device.NewDisk("d", 64_000_000, 8*media.MBPerSecond, avtime.Millisecond)
	if err := d.SetGeometry(16, avtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := dm.Register(d); err != nil {
		t.Fatal(err)
	}
	st := NewStore(dm)
	st.SetStriping(StripePolicy{Rounds: true})
	const frames = 40
	seg, err := st.Place(clip(t, frames), "d")
	if err != nil {
		t.Fatal(err)
	}
	ss := make([]*Stream, 2)
	for w := range ss {
		if ss[w], _, err = st.OpenStream(seg.ID(), media.MBPerSecond); err != nil {
			t.Fatal(err)
		}
		defer ss[w].Close()
	}
	readRoundsConcurrently(t, st, ss, frames)
	if len(seg.chunkDev) != frames || len(seg.chunkTrck) != frames {
		t.Errorf("layout holds %d chunks and %d tracks, want %d", len(seg.chunkDev), len(seg.chunkTrck), frames)
	}
	if io := st.IOStats(); io.Scheduled == 0 {
		t.Error("no read was served from a round: the layout never reached the scheduler")
	}
}
