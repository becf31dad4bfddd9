package storage

// tier.go implements the storage hierarchy: values archived on the
// jukebox tier are promoted to the disk tier — and hot values
// replicated across stripe groups — driven by a decayed per-value
// popularity counter, and demoted back when they go cold.  The paper's
// data-placement characteristic (§3.3) made placement client-visible;
// tiering makes it workload-visible: reads of un-promoted values pay
// the platter swap, reads of promoted values stream from disks at
// stripe bandwidth, and the store moves values between the tiers as
// their audience changes.
//
// Promotion is a COPY, priced in virtual time like Move: the jukebox
// keeps the archival copy (demotion just frees the disk copy), and the
// cost — disc access incl. any swap, plus the striped write — is
// charged to the startup of the stream whose access crossed the
// threshold.  Both promotion and demotion are gated on the value having
// no open streams: rebuilding the chunk layout under a live reader is
// exactly the copy-during-playback the paper warns "could be so
// time-consuming as to destroy any sense of interactivity", so a
// threshold crossed mid-stream simply defers to the next quiet access.
// Replication has no such gate — a replica adds state existing streams
// never look at (they snapshot the replica set at open).
//
// Everything here runs under the store lock; device allocations are
// virtual-time bookkeeping, not blocking work.

import (
	"fmt"
	"math"
	"sort"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
)

// TierPolicy configures popularity-driven movement between the jukebox
// and disk tiers.  The zero value disables tiering entirely.
type TierPolicy struct {
	// PromoteAt is the decayed popularity at which a jukebox value gets
	// a disk-tier copy; <= 0 disables promotion.
	PromoteAt float64
	// DemoteBelow: SweepTiers demotes promoted values whose popularity
	// decayed under this; <= 0 disables demotion.
	DemoteBelow float64
	// HalfLife is the popularity decay half-life in virtual time; <= 0
	// means popularity never decays.
	HalfLife avtime.WorldTime
	// Width is the stripe width of promoted disk copies; <= 1 places the
	// copy on a single disk.
	Width int
	// Replicas adds extra copies of hot values across stripe groups.
	Replicas ReplicaPolicy
}

// Enabled reports whether the policy moves or copies anything.
func (p TierPolicy) Enabled() bool { return p.PromoteAt > 0 || p.Replicas.Copies > 1 }

// SetTierPolicy configures tiering for TierAccess/OpenStreamTiered
// calls made afterwards.
func (st *Store) SetTierPolicy(p TierPolicy) {
	st.mu.Lock()
	st.tiering = p
	st.mu.Unlock()
}

// Tiering reports the store's current tier policy.
func (st *Store) Tiering() TierPolicy {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tiering
}

// decayPop applies exponential decay to the segment's popularity up to
// now and reports the result; the store lock is held.
func (s *Segment) decayPop(now, halfLife avtime.WorldTime) float64 {
	if halfLife > 0 && now > s.popAt && s.pop > 0 {
		s.pop *= math.Exp2(-float64(now-s.popAt) / float64(halfLife))
	}
	if now > s.popAt {
		s.popAt = now
	}
	return s.pop
}

// TierAccess records one access to the value at virtual time now for
// popularity-driven placement: the decayed popularity is bumped, and
// crossing the promotion or replication thresholds copies the value up
// the hierarchy.  The returned world time is the cost of any copy made,
// which the caller charges to the accessing stream's startup.  Failures
// are fail-soft — the value simply stays where it is, the attempt's
// cost is still returned, and storage.tier.* counters record what
// happened.
func (st *Store) TierAccess(id SegID, now avtime.WorldTime) avtime.WorldTime {
	st.mu.Lock()
	defer st.mu.Unlock()
	pol := st.tiering
	if !pol.Enabled() {
		return 0
	}
	s, ok := st.segments[id]
	if !ok {
		return 0
	}
	s.decayPop(now, pol.HalfLife)
	s.pop++
	var extra avtime.WorldTime
	if pol.PromoteAt > 0 && !s.promoted && s.disc >= 0 && s.openStreams == 0 && s.pop >= pol.PromoteAt {
		t, err := st.promoteLocked(s, now, pol)
		extra += t
		if err == nil {
			st.m.promotions.Add(1)
		} else {
			st.m.promoteFailed.Add(1)
		}
	}
	if pol.Replicas.Copies > 1 && s.Striped() && s.pop >= pol.Replicas.PromoteAt &&
		len(s.replicas) < pol.Replicas.Copies-1 {
		t, err := st.addReplicaLocked(s)
		extra += t
		if err == nil {
			st.m.replicas.Add(1)
		}
	}
	return extra
}

// OpenStreamTiered is OpenStream with popularity accounting: the access
// bumps the value's popularity, may promote or replicate it, and the
// returned startup time includes any copy the access triggered (charged
// to this stream's first read).  now is the caller's virtual time.
func (st *Store) OpenStreamTiered(id SegID, rate media.DataRate, now avtime.WorldTime) (*Stream, avtime.WorldTime, error) {
	extra := st.TierAccess(id, now)
	stream, startup, err := st.OpenStream(id, rate)
	if err != nil {
		return nil, extra, err
	}
	// No other goroutine holds the new stream yet.
	stream.startup += extra
	return stream, startup + extra, nil
}

// promoteLocked copies a jukebox value into the disk tier: one disc
// access (paying any platter swap) reads the value, then a stripe-wide
// allocation takes the write, priced as the slowest disk's transfer.
// On any failure the allocations roll back and the value stays
// archival.  The store lock is held.
func (st *Store) promoteLocked(s *Segment, now avtime.WorldTime, pol TierPolicy) (avtime.WorldTime, error) {
	j, err := st.jukebox(s.devID)
	if err != nil {
		return 0, err
	}
	swap := !j.DiscLoaded(s.disc)
	readT, err := j.AccessTime(s.disc, s.size)
	if err != nil {
		return 0, err
	}
	if swap {
		st.m.swaps.Add(1)
	}
	width := pol.Width
	if width < 1 {
		width = 1
	}
	if s.chunkDev == nil || len(s.perDev) != width {
		if err := s.buildChunkMap(width); err != nil {
			return readT, err
		}
	}
	alloc := func() ([]diskRank, []int64, error) {
		ranked := st.rankedDisks(0, 0)
		if len(ranked) < width {
			return nil, nil, fmt.Errorf("%w: %d disks for a width-%d promotion", ErrNoPlacement, len(ranked), width)
		}
		chosen := ranked[:width]
		bases := make([]int64, width)
		for k := 0; k < width; k++ {
			bases[k] = chosen[k].d.Used()
			if err := chosen[k].d.Allocate(s.perDev[k]); err != nil {
				for u := 0; u < k; u++ {
					chosen[u].d.Free(s.perDev[u])
				}
				return nil, nil, err
			}
		}
		return chosen, bases, nil
	}
	chosen, bases, err := alloc()
	if err != nil {
		// The disk tier is full of colder values: demote what the sweep
		// can and retry once.
		if st.sweepLocked(now) > 0 {
			chosen, bases, err = alloc()
		}
		if err != nil {
			return readT, err
		}
	}
	var writeT avtime.WorldTime
	for k := 0; k < width; k++ {
		if t := chosen[k].d.TransferTime(s.perDev[k], 1); t > writeT {
			writeT = t
		}
	}
	s.stripe = make([]string, width)
	s.base = bases
	homes := make([]*device.Disk, width)
	for k := 0; k < width; k++ {
		s.stripe[k] = chosen[k].d.ID()
		homes[k] = chosen[k].d
	}
	s.chunkTrck = nil
	s.buildTrackMap(homes)
	s.promoted = true
	return readT + writeT, nil
}

// addReplicaLocked places one extra copy of a striped value on disks
// disjoint from every existing copy, priced as the primary's read plus
// the new copy's write.  The store lock is held.
func (st *Store) addReplicaLocked(s *Segment) (avtime.WorldTime, error) {
	width := len(s.stripe)
	exclude := make(map[string]bool, width*(1+len(s.replicas)))
	for _, id := range s.stripe {
		exclude[id] = true
	}
	for _, rep := range s.replicas {
		for _, id := range rep.stripe {
			exclude[id] = true
		}
	}
	ranked := st.rankedDisks(0, 0)
	chosen := make([]*device.Disk, 0, width)
	for _, r := range ranked {
		if exclude[r.d.ID()] {
			continue
		}
		chosen = append(chosen, r.d)
		if len(chosen) == width {
			break
		}
	}
	if len(chosen) < width {
		return 0, fmt.Errorf("%w: %d disjoint disks for a width-%d replica", ErrNoPlacement, len(chosen), width)
	}
	rep := &segReplica{
		stripe: make([]string, width),
		base:   make([]int64, width),
		perDev: s.perDev,
		disks:  chosen,
	}
	for k, d := range chosen {
		rep.stripe[k] = d.ID()
		rep.base[k] = d.Used()
		if err := d.Allocate(s.perDev[k]); err != nil {
			for u := 0; u < k; u++ {
				chosen[u].Free(s.perDev[u])
			}
			return 0, err
		}
	}
	var readT, writeT avtime.WorldTime
	for k, id := range s.stripe {
		if dev, found := st.devices.Get(id); found {
			if d, isDisk := dev.(*device.Disk); isDisk {
				if t := d.TransferTime(s.perDev[k], 1); t > readT {
					readT = t
				}
			}
		}
	}
	for k, d := range chosen {
		if t := d.TransferTime(s.perDev[k], 1); t > writeT {
			writeT = t
		}
	}
	rep.chunkTrck = make([]int, len(s.chunkDev))
	for i, k := range s.chunkDev {
		rep.chunkTrck[i] = chosen[k].TrackOf(rep.base[k] + s.chunkOff[i])
	}
	s.replicas = append(s.replicas, rep)
	return readT + writeT, nil
}

// SweepTiers demotes every promoted value that has gone cold — decayed
// popularity under DemoteBelow and no open streams — freeing its disk
// copy and replicas; the jukebox keeps the archival copy.  Values are
// swept in segment-ID order so the demotion sequence is deterministic.
// Returns how many values were demoted.
func (st *Store) SweepTiers(now avtime.WorldTime) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sweepLocked(now)
}

func (st *Store) sweepLocked(now avtime.WorldTime) int {
	pol := st.tiering
	if pol.DemoteBelow <= 0 {
		return 0
	}
	ids := make([]SegID, 0, len(st.segments))
	for id := range st.segments {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	n := 0
	for _, id := range ids {
		s := st.segments[id]
		if !s.promoted || s.openStreams > 0 {
			continue
		}
		if s.decayPop(now, pol.HalfLife) < pol.DemoteBelow {
			st.demoteLocked(s)
			n++
		}
	}
	return n
}

// demoteLocked frees a promoted value's disk copy and replicas; the
// jukebox's archival copy remains the only one.  The store lock is
// held and the caller checked openStreams == 0.
func (st *Store) demoteLocked(s *Segment) {
	for _, rep := range s.replicas {
		for k, d := range rep.disks {
			d.Free(rep.perDev[k])
		}
	}
	s.replicas = nil
	for k, id := range s.stripe {
		if dev, found := st.devices.Get(id); found {
			if d, isDisk := dev.(*device.Disk); isDisk {
				d.Free(s.perDev[k])
			}
		}
	}
	s.stripe, s.base = nil, nil
	s.chunkDev, s.chunkOff, s.chunkSize, s.chunkTrck, s.perDev = nil, nil, nil, nil, nil
	s.promoted = false
	st.m.demotions.Add(1)
}

// TierInfo describes one value's place in the hierarchy.
type TierInfo struct {
	Seg        SegID
	Device     string // archival device (the jukebox for promoted values)
	Disc       int    // jukebox disc, -1 for disk-native values
	Promoted   bool
	Popularity float64
	Copies     int // readable copies: 1 + replicas for striped values
	Streams    int // open streams
	Size       int64
}

// Tier names the storage tier serving the value's reads.
func (ti TierInfo) Tier() string {
	switch {
	case ti.Promoted:
		return "jukebox+disk"
	case ti.Disc >= 0:
		return "jukebox"
	default:
		return "disk"
	}
}

// TierInfo reports every value's tier state at virtual time now, in
// segment-ID order.
func (st *Store) TierInfo(now avtime.WorldTime) []TierInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	pol := st.tiering
	ids := make([]SegID, 0, len(st.segments))
	for id := range st.segments {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]TierInfo, 0, len(ids))
	for _, id := range ids {
		s := st.segments[id]
		copies := 1
		if s.Striped() {
			copies = 1 + len(s.replicas)
		}
		out = append(out, TierInfo{
			Seg:        id,
			Device:     s.devID,
			Disc:       s.disc,
			Promoted:   s.promoted,
			Popularity: s.decayPop(now, pol.HalfLife),
			Copies:     copies,
			Streams:    s.openStreams,
			Size:       s.size,
		})
	}
	return out
}
