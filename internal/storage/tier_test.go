package storage

// tier_test.go exercises the storage hierarchy: popularity-driven
// promotion from the jukebox tier, hot-value replication, demotion
// sweeps, and the fail-soft behavior under platter jams and disk
// outages during a copy.

import (
	"errors"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/obs"
)

// tierRig builds a jukebox-plus-disks hierarchy: jb0 with 3 discs and a
// 5s swap, and n stripe-ready disks named adisk, bdisk, ...
func tierRig(t *testing.T, n int) (*device.Manager, *Store) {
	t.Helper()
	dm := device.NewManager()
	if err := dm.Register(device.NewJukebox("jb0", 3, 10_000_000, 1*media.MBPerSecond, 5*avtime.Second)); err != nil {
		t.Fatal(err)
	}
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

func diskUsed(t *testing.T, dm *device.Manager, id string) int64 {
	t.Helper()
	dev, ok := dm.Get(id)
	if !ok {
		t.Fatalf("no device %q", id)
	}
	return dev.(*device.Disk).Used()
}

func TestTierPolicyAccessors(t *testing.T) {
	_, st := tierRig(t, 2)
	if st.Tiering().Enabled() {
		t.Error("zero tier policy should be disabled")
	}
	p := TierPolicy{PromoteAt: 3, DemoteBelow: 1, HalfLife: 60 * avtime.Second, Width: 2}
	st.SetTierPolicy(p)
	if got := st.Tiering(); got != p {
		t.Errorf("Tiering = %+v, want %+v", got, p)
	}
	if !(TierPolicy{Replicas: ReplicaPolicy{Copies: 2}}).Enabled() {
		t.Error("replica-only policy should be enabled")
	}
}

func TestTierPromoteOnPopularity(t *testing.T) {
	dm, st := tierRig(t, 2)
	col := obs.NewCollector()
	st.SetSink(col)
	st.SetTierPolicy(TierPolicy{PromoteAt: 3, Width: 2})
	// Disc 1: a fresh jukebox has disc 0 in its platter, so the first
	// access pays a real swap.
	seg, err := st.PlaceOnDisc(clip(t, 10), "jb0", 1)
	if err != nil {
		t.Fatal(err)
	}
	var startups [3]avtime.WorldTime
	for i := 0; i < 3; i++ {
		s, startup, err := st.OpenStreamTiered(seg.ID(), media.MBPerSecond, avtime.WorldTime(i)*avtime.Second)
		if err != nil {
			t.Fatal(err)
		}
		startups[i] = startup
		s.Close()
	}
	ti := st.TierInfo(3 * avtime.Second)
	if len(ti) != 1 || !ti[0].Promoted || ti[0].Tier() != "jukebox+disk" {
		t.Fatalf("after 3 accesses: %+v, want promoted", ti)
	}
	if ti[0].Disc != 1 || ti[0].Device != "jb0" {
		t.Errorf("archival copy lost: %+v", ti[0])
	}
	// The promoting open pays the copy: disc read + stripe write on top
	// of a plain startup.
	if startups[2] <= startups[1] {
		t.Errorf("promotion not charged: startup %v vs %v", startups[2], startups[1])
	}
	// 12 KB split across a width-2 stripe.
	if a, b := diskUsed(t, dm, diskID(0)), diskUsed(t, dm, diskID(1)); a+b != 12_000 {
		t.Errorf("disk tier holds %d+%d bytes, want 12000", a, b)
	}
	snap := col.Snapshot()
	if got := snap.Counter("storage.tier.promotions"); got != 1 {
		t.Errorf("promotions = %d, want 1", got)
	}
	// The first jukebox open paid the platter swap (disc 1 stays loaded
	// afterwards); the second open and the promotion found it loaded.
	if got := snap.Counter("storage.tier.swaps"); got != 1 {
		t.Errorf("swaps = %d, want 1", got)
	}
	// Promoted reads stream from the disks, not the jukebox.
	s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !seg.Striped() {
		t.Fatal("promoted segment should be striped")
	}
	if _, err := s.ReadChunkTimeAt(0, 1200, -1, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTierPromotionDefersWhileStreaming(t *testing.T) {
	_, st := tierRig(t, 2)
	st.SetTierPolicy(TierPolicy{PromoteAt: 2, Width: 1})
	seg, err := st.PlaceOnDisc(clip(t, 10), "jb0", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half the jukebox head's bandwidth each, so two streams coexist.
	a, _, err := st.OpenStreamTiered(seg.ID(), media.MBPerSecond/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Second access crosses the threshold, but a holds the value open:
	// rebuilding the layout under a live reader is the interactivity
	// killer the paper warns about, so the copy defers.
	b, _, err := st.OpenStreamTiered(seg.ID(), media.MBPerSecond/2, avtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.TierInfo(avtime.Second)[0].Promoted {
		t.Fatal("promoted under a live stream")
	}
	a.Close()
	b.Close()
	// The next quiet access promotes.
	c, _, err := st.OpenStreamTiered(seg.ID(), media.MBPerSecond/2, 2*avtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !st.TierInfo(2 * avtime.Second)[0].Promoted {
		t.Fatal("quiet access did not promote")
	}
}

// jamHook fails the first n jukebox swaps, then lets them through.
type jamHook struct{ n *int }

func (h jamHook) BeforeRead(string, device.Access, int64) (avtime.WorldTime, error) { return 0, nil }
func (h jamHook) BeforeSwap(string, device.Access) error {
	if *h.n > 0 {
		*h.n--
		return errors.New("carousel jammed")
	}
	return nil
}

func TestTierSwapJamFailsPromotionCleanly(t *testing.T) {
	dm, st := tierRig(t, 2)
	col := obs.NewCollector()
	st.SetSink(col)
	st.SetTierPolicy(TierPolicy{PromoteAt: 1, Width: 2})
	// Disc 1 is out of the platter, so the promotion's read needs a swap.
	seg, err := st.PlaceOnDisc(clip(t, 10), "jb0", 1)
	if err != nil {
		t.Fatal(err)
	}
	jams := 1
	dm.SetFaultHook(jamHook{n: &jams})
	// The first access needs a swap to read the disc for the copy; the
	// jam fails the promotion but not the open (the open's own access
	// retries the swap, which now succeeds).
	s, startup, err := st.OpenStreamTiered(seg.ID(), media.MBPerSecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.TierInfo(0)[0].Promoted {
		t.Fatal("jammed promotion still promoted")
	}
	if used := diskUsed(t, dm, diskID(0)) + diskUsed(t, dm, diskID(1)); used != 0 {
		t.Errorf("failed promotion leaked %d bytes on the disk tier", used)
	}
	// The failed attempt still cost its swap latency on top of the
	// open's own swap-and-access startup.
	if startup <= 5*avtime.Second {
		t.Errorf("startup %v should include the jammed swap attempt", startup)
	}
	snap := col.Snapshot()
	if got := snap.Counter("storage.tier.promote_failed"); got != 1 {
		t.Errorf("promote_failed = %d, want 1", got)
	}
	s.Close()
	dm.SetFaultHook(nil)
	// Popularity survived the jam: the next quiet access promotes.
	c, _, err := st.OpenStreamTiered(seg.ID(), media.MBPerSecond, avtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !st.TierInfo(avtime.Second)[0].Promoted {
		t.Fatal("recovered jukebox did not promote")
	}
}

func TestTierDiskOutageRollsBackPromotion(t *testing.T) {
	dm, st := tierRig(t, 2)
	col := obs.NewCollector()
	st.SetSink(col)
	st.SetTierPolicy(TierPolicy{PromoteAt: 1, Width: 2})
	seg, err := st.PlaceOnDisc(clip(t, 10), "jb0", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Both promotion targets are down: the write-reachability probe
	// fails the copy and rolls the allocations back.
	dm.SetFaultHook(failHook{fail: map[string]bool{diskID(0): true, diskID(1): true}})
	s, _, err := st.OpenStreamTiered(seg.ID(), media.MBPerSecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.TierInfo(0)[0].Promoted {
		t.Fatal("promoted onto dead disks")
	}
	if used := diskUsed(t, dm, diskID(0)) + diskUsed(t, dm, diskID(1)); used != 0 {
		t.Errorf("rolled-back promotion leaked %d bytes", used)
	}
	if got := col.Snapshot().Counter("storage.tier.promote_failed"); got != 1 {
		t.Errorf("promote_failed = %d, want 1", got)
	}
	// The archival copy still serves reads.
	if _, err := s.ReadChunkTimeAt(0, 1200, -1, 0, 0); err != nil {
		t.Fatalf("jukebox read after failed promotion: %v", err)
	}
	s.Close()
	dm.SetFaultHook(nil)
	c, _, err := st.OpenStreamTiered(seg.ID(), media.MBPerSecond, avtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !st.TierInfo(avtime.Second)[0].Promoted {
		t.Fatal("recovered disks did not promote")
	}
}

func TestTierDemotionSweep(t *testing.T) {
	dm, st := tierRig(t, 2)
	col := obs.NewCollector()
	st.SetSink(col)
	st.SetTierPolicy(TierPolicy{PromoteAt: 1, DemoteBelow: 0.5, HalfLife: 10 * avtime.Second, Width: 2})
	seg, err := st.PlaceOnDisc(clip(t, 10), "jb0", 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStreamTiered(seg.ID(), media.MBPerSecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.TierInfo(0)[0].Promoted {
		t.Fatal("first access did not promote")
	}
	// Still hot shortly after: no demotion.
	if n := st.SweepTiers(avtime.Second); n != 0 {
		t.Fatalf("hot value demoted (%d)", n)
	}
	// Cold, but the open stream pins the disk copy.
	if n := st.SweepTiers(100 * avtime.Second); n != 0 {
		t.Fatalf("demoted under a live stream (%d)", n)
	}
	s.Close()
	if n := st.SweepTiers(100 * avtime.Second); n != 1 {
		t.Fatalf("SweepTiers = %d, want 1", n)
	}
	ti := st.TierInfo(100 * avtime.Second)[0]
	if ti.Promoted || ti.Tier() != "jukebox" {
		t.Fatalf("demoted value: %+v, want archival only", ti)
	}
	if used := diskUsed(t, dm, diskID(0)) + diskUsed(t, dm, diskID(1)); used != 0 {
		t.Errorf("demotion left %d bytes on the disk tier", used)
	}
	if got := col.Snapshot().Counter("storage.tier.demotions"); got != 1 {
		t.Errorf("demotions = %d, want 1", got)
	}
	// The archival copy still opens and reads.
	c, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReadChunkTimeAt(0, 1200, -1, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTierReplicationOnHotValue(t *testing.T) {
	dm, st := stripeRig(t, 4)
	col := obs.NewCollector()
	st.SetSink(col)
	st.SetTierPolicy(TierPolicy{Replicas: ReplicaPolicy{Copies: 2, PromoteAt: 2}})
	seg, err := st.PlaceStriped(clip(t, 12), 2*media.MBPerSecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	primary := diskUsed(t, dm, diskID(0)) + diskUsed(t, dm, diskID(1))
	a, _, err := st.OpenStreamTiered(seg.ID(), 2*media.MBPerSecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if got := st.TierInfo(0)[0].Copies; got != 1 {
		t.Fatalf("replicated below threshold: copies = %d", got)
	}
	b, _, err := st.OpenStreamTiered(seg.ID(), 2*media.MBPerSecond, avtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := st.TierInfo(avtime.Second)[0].Copies; got != 2 {
		t.Fatalf("copies = %d, want 2 at the threshold", got)
	}
	// The replica lives on the two disks disjoint from the primary.
	if got := diskUsed(t, dm, diskID(2)) + diskUsed(t, dm, diskID(3)); got != primary {
		t.Errorf("replica holds %d bytes, want %d", got, primary)
	}
	if got := col.Snapshot().Counter("storage.tier.replicas"); got != 1 {
		t.Errorf("replicas counter = %d, want 1", got)
	}
	// Copies is capped: another access adds nothing.
	c, _, err := st.OpenStreamTiered(seg.ID(), 2*media.MBPerSecond, 2*avtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := st.TierInfo(2 * avtime.Second)[0].Copies; got != 2 {
		t.Fatalf("copies = %d after third access, want 2", got)
	}
}

func TestTierReplicaFailoverOnOutage(t *testing.T) {
	dm, st := stripeRig(t, 4)
	col := obs.NewCollector()
	st.SetSink(col)
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
	if got := st.TierInfo(0)[0].Copies; got != 2 {
		t.Fatalf("copies = %d, want 2", got)
	}
	// Chunk 0's home (the first stripe disk) goes down hard; the read
	// fails over to the replica's copy of the same stripe column.
	dm.SetFaultHook(downHook{down: map[string]bool{diskID(0): true}})
	dt, err := s.ReadChunkTimeAt(0, 1200, -1, 0, 0)
	if err != nil {
		t.Fatalf("read with a live replica: %v", err)
	}
	if dt == 0 {
		t.Error("failover read cannot be free")
	}
	if got := col.Snapshot().Counter("storage.replica.failover"); got != 1 {
		t.Errorf("failover counter = %d, want 1", got)
	}
	// Primary home and its replica column both down: no live copy left.
	dm.SetFaultHook(downHook{down: map[string]bool{diskID(0): true, diskID(2): true}})
	if _, err := s.ReadChunkTimeAt(2, 1200, -1, 0, 0); !errors.Is(err, device.ErrDeviceFailed) {
		t.Fatalf("read with no live copy: %v, want ErrDeviceFailed", err)
	}
}

// downHook hard-fails every read on the listed devices (an outage, not
// a transient fault — failover only engages on ErrDeviceFailed).
type downHook struct{ down map[string]bool }

func (h downHook) BeforeRead(deviceID string, _ device.Access, bytes int64) (avtime.WorldTime, error) {
	if h.down[deviceID] {
		return avtime.Millisecond, device.ErrDeviceFailed
	}
	return 0, nil
}

func (h downHook) BeforeSwap(string, device.Access) error { return nil }

// TestTierFlexRoutingLeastLoaded drives the scheduler directly: two
// streams request replicated chunks in one round, and the flex
// assignment spreads them across the copies by queued bytes, ties to
// the lower device ID, independent of submission order.
func TestTierFlexRoutingLeastLoaded(t *testing.T) {
	dm, _ := stripeRig(t, 2)
	da, _ := dm.Get(diskID(0))
	db, _ := dm.Get(diskID(1))
	a, b := da.(*device.Disk), db.(*device.Disk)
	mkReq := func(sid int64, chunk int, deadline avtime.WorldTime, slot *ioSlot) ioReq {
		q := ioReq{
			sid: sid, chunk: chunk, bytes: 1200, disk: a, track: 0,
			rate: media.MBPerSecond, deadline: deadline, slot: slot,
		}
		q.alts[0] = ioAlt{disk: b, track: 0}
		q.nalt = 1
		return q
	}
	for _, order := range [][]int64{{1, 2}, {2, 1}} {
		io := newIOSched(nil)
		slots := map[int64]*ioSlot{1: {}, 2: {}}
		for _, sid := range order {
			io.submit(0, mkReq(sid, int(sid), avtime.WorldTime(sid)*avtime.Second, slots[sid]))
		}
		io.flushBefore(1)
		// Earliest deadline routes first onto the equally-empty disks:
		// the tie goes to the lower ID (adisk); the second request then
		// sees adisk loaded and takes bdisk.
		if got := slots[1].disk; got != a {
			t.Fatalf("order %v: first request on %v, want %s", order, got.ID(), a.ID())
		}
		if got := slots[2].disk; got != b {
			t.Fatalf("order %v: second request on %v, want %s", order, got.ID(), b.ID())
		}
	}
}
