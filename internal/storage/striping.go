package storage

// striping.go implements striped placement: a value's chunks are
// interleaved round-robin across N disks so the aggregate bandwidth
// available to one stream multiplies past what a single spindle can
// sustain — the classic continuous-media answer to "one hot disk
// saturates while the others idle".  A striped segment records a stripe
// map (home disk, byte offset and size per chunk) at placement time;
// OpenStream reserves a share of the stream rate on every participating
// disk and ReadChunkTimeAt routes each chunk to its home disk for fault
// checks and positioning costs.

import (
	"fmt"
	"sort"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
)

// ErrStriped is wrapped by operations a striped segment does not
// support, such as Move.
var ErrStriped = fmt.Errorf("storage: segment is striped")

// StripePolicy configures the store's striped-read behavior.  The zero
// value changes nothing: placements stay single-device, every chunk read
// keeps its PR-3 cost model, and no scheduler exists.
type StripePolicy struct {
	// Width is the default stripe width for automatic placement
	// (core.PlaceMedia without a device pin); <= 1 keeps single-disk
	// auto placement.  Explicit PlaceStriped calls pass their own width.
	Width int
	// Seeks enables contended positioning costs: every demand chunk
	// read pays its home disk's seek, modeling heads that other
	// concurrent streams keep stealing.  Off, only the first read of a
	// stream pays positioning (the historical single-stream pricing).
	Seeks bool
	// Rounds enables the SCAN-EDF round scheduler: chunk requests
	// issued during one graph tick are batched per disk, ordered by
	// (deadline, track) and charged one amortized seek per run of
	// adjacent requests.
	Rounds bool
}

// ReplicaPolicy configures hot-clip replication: values whose decayed
// popularity reaches PromoteAt get extra copies of their chunks on
// disjoint stripe groups, up to Copies copies total, and the round
// scheduler routes each read to the least-loaded copy — concurrent
// sessions of one clip fan out instead of queueing on one stripe
// group's bandwidth.  The zero value disables replication.
type ReplicaPolicy struct {
	Copies    int     // total copies of a hot value's chunks; <= 1 disables
	PromoteAt float64 // decayed popularity at which extra copies appear
}

// segReplica is one extra copy of a striped segment's chunks on a
// disjoint set of disks.  The chunk layout (chunkDev/chunkOff/
// chunkSize) is the segment's own — only the disks, allocation bases
// and home tracks differ.  Immutable once the copy is registered.
type segReplica struct {
	stripe    []string       // disk IDs, same round-robin order as the primary
	base      []int64        // allocation base offset on each disk
	perDev    []int64        // bytes per disk; aliases the segment's perDev
	chunkTrck []int          // chunk -> home track on this copy
	disks     []*device.Disk // resolved once, for the submit/failover hot paths
}

// SetStriping configures striping and I/O scheduling for streams opened
// afterwards; already-open streams keep the policy they were opened
// with.  The zero policy disables both.
func (st *Store) SetStriping(p StripePolicy) {
	st.mu.Lock()
	st.striping = p
	if (p.Seeks || p.Rounds) && st.io == nil {
		st.io = newIOSched(st.sink)
	}
	st.mu.Unlock()
}

// Striping reports the store's current stripe policy.
func (st *Store) Striping() StripePolicy {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.striping
}

// IOStats reports the round scheduler's counters; the zero value when no
// scheduling policy was ever installed.
func (st *Store) IOStats() IOStats {
	st.mu.Lock()
	io := st.io
	st.mu.Unlock()
	if io == nil {
		return IOStats{}
	}
	return io.Stats()
}

// Striped reports whether the segment is striped, and over which
// devices.
func (s *Segment) Striped() bool { return len(s.stripe) > 0 }

// buildChunkMap computes the segment's chunk layout: home device index,
// byte offset within that device's share, and size for every chunk,
// assigning chunks round-robin over width devices.  It is called before
// the segment becomes visible (PlaceStriped) or under the store lock
// (Stream.layoutLocked, promotion), so the map is immutable to readers;
// on error the segment keeps the map it had.
func (s *Segment) buildChunkMap(width int) error {
	if width < 1 {
		width = 1
	}
	n := s.frames
	dev, offs, sizes := make([]int, n), make([]int64, n), make([]int64, n)
	off := make([]int64, width)
	for i := 0; i < n; i++ {
		el, err := s.value.ElementAt(avtime.ObjectTime(i))
		if err != nil {
			return fmt.Errorf("storage: chunk map for %v: %w", s.id, err)
		}
		d := i % width
		dev[i], offs[i], sizes[i] = d, off[d], el.Size()
		off[d] += el.Size()
	}
	s.chunkDev, s.chunkOff, s.chunkSize, s.perDev = dev, offs, sizes, off
	return nil
}

// buildTrackMap caches each chunk's home track so the scheduler's
// submit path never recomputes geometry math (or takes the disk lock)
// per read.  disks holds the segment's home disks in chunkDev index
// order.  It is called before the segment becomes visible
// (PlaceStriped) or under the store lock (first scheduled open), and
// the cache is immutable once built — the same contract as the chunk
// map, which means disk geometry must be installed before the first
// scheduled stream opens (every placement path in the tree already
// does).
func (s *Segment) buildTrackMap(disks []*device.Disk) {
	if s.chunkTrck != nil || s.chunkDev == nil {
		return
	}
	tracks := make([]int, len(s.chunkDev))
	for i, k := range s.chunkDev {
		var base int64
		if s.base != nil {
			base = s.base[k]
		}
		tracks[i] = disks[k].TrackOf(base + s.chunkOff[i])
	}
	s.chunkTrck = tracks
}

// diskRank orders candidate disks for load-aware placement: most free
// bandwidth first, ties broken by free capacity, then by ID so the
// choice is deterministic for equal loads.
type diskRank struct {
	d      *device.Disk
	freeBW media.DataRate
	free   int64
}

// rankedDisks returns every disk passing the eligibility thresholds in
// placement-preference order.  minFree and minBW are lower bounds; pass
// zero to skip a criterion.
func (st *Store) rankedDisks(minFree int64, minBW media.DataRate) []diskRank {
	var out []diskRank
	for _, id := range st.devices.ListKind(device.KindDisk) {
		d, _ := st.devices.Get(id)
		disk := d.(*device.Disk)
		free := disk.Capacity() - disk.Used()
		bw := disk.FreeBandwidth()
		if free >= minFree && bw >= minBW {
			out = append(out, diskRank{d: disk, freeBW: bw, free: free})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].freeBW != out[j].freeBW {
			return out[i].freeBW > out[j].freeBW
		}
		if out[i].free != out[j].free {
			return out[i].free > out[j].free
		}
		return out[i].d.ID() < out[j].d.ID()
	})
	return out
}

// shareRate splits a stream rate over width devices: every share is
// rate/width with the remainder spread one byte/s at a time over the
// first shares, so the shares sum exactly to rate and release exactly
// what was reserved.
func shareRate(rate media.DataRate, width int) []media.DataRate {
	shares := make([]media.DataRate, width)
	base := rate / media.DataRate(width)
	rem := rate % media.DataRate(width)
	for i := range shares {
		shares[i] = base
		if media.DataRate(i) < rem {
			shares[i]++
		}
	}
	return shares
}

// PlaceStriped stores a value interleaved round-robin across width
// disks, chosen load-aware (most free bandwidth, then free capacity,
// then ID).  rate is the streaming rate the placement must later
// sustain: every chosen disk needs free bandwidth for a 1/width share of
// it.  Streams opened on the returned segment reserve that share on
// each disk, so the effective stream bandwidth multiplies by the stripe
// width.  width 1 degenerates to PlaceAuto.
func (st *Store) PlaceStriped(v media.Value, rate media.DataRate, width int) (*Segment, error) {
	if width < 1 {
		return nil, fmt.Errorf("storage: stripe width must be >= 1, got %d", width)
	}
	if width == 1 {
		return st.PlaceAuto(v, rate)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("storage: stripe rate must be positive, got %v", rate)
	}
	perBW := shareRate(rate, width)[0] // the largest share
	ranked := st.rankedDisks(0, perBW)
	if len(ranked) < width {
		return nil, fmt.Errorf("%w: %d disks with a %v bandwidth share free, %d needed",
			ErrNoPlacement, len(ranked), perBW, width)
	}
	// Stage the segment to compute per-disk shares before allocating.
	s := &Segment{value: v, disc: -1, size: v.Size(), frames: v.NumElements()}
	if err := s.buildChunkMap(width); err != nil {
		return nil, err
	}
	chosen := ranked[:width]
	s.stripe = make([]string, width)
	s.base = make([]int64, width)
	for k, c := range chosen {
		s.stripe[k] = c.d.ID()
		s.base[k] = c.d.Used()
		if err := c.d.Allocate(s.perDev[k]); err != nil {
			for u := 0; u < k; u++ {
				chosen[u].d.Free(s.perDev[u])
			}
			return nil, fmt.Errorf("storage: striping over %d disks: %w", width, err)
		}
	}
	s.devID = s.stripe[0]
	homes := make([]*device.Disk, width)
	for k, c := range chosen {
		homes[k] = c.d
	}
	s.buildTrackMap(homes)
	st.mu.Lock()
	s.id = st.nextID
	st.nextID++
	st.segments[s.id] = s
	st.mu.Unlock()
	return s, nil
}
