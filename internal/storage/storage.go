// Package storage is the AV database's media store: it places stored
// media values (segments) on concrete storage devices, accounts space and
// bandwidth, and prices every access in world time.
//
// Placement is deliberately client-visible (§3.3 "data placement"):
// callers may pin a value to a named device — two values that must be
// mixed in real time are placed on different disks — or let the store
// choose.  Moving a value between devices is possible but costs the full
// read+write time, the copy the paper warns "could be so time-consuming
// as to destroy any sense of interactivity."
//
// One lock, Store.mu, guards the store's data plane: the segment table,
// the policies and the round mark, every Stream field a read touches,
// the round scheduler (sched.go) and the buffer pool (pool.go), which
// have no lock of their own.  Each entry point — a chunk read, a close,
// CloseRound, the stats snapshots, SetSink, the policy setters — takes
// it once.  Lock order is Store.mu → device locks → obs handle locks,
// and nothing holding Store.mu calls back into the store.  The engine
// reads every stream from its one loop goroutine, so in steady state the
// lock is uncontended; clients closing sessions or snapshotting stats
// from their own goroutines meet the engine on it.
package storage

import (
	"fmt"
	"sync"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/obs"
)

// ErrNoSegment is wrapped by lookups of unknown segments.
var ErrNoSegment = fmt.Errorf("storage: no such segment")

// ErrNoPlacement is wrapped when no device can hold a value at the
// required rate — the placement half of admission failing.
var ErrNoPlacement = fmt.Errorf("storage: no eligible placement")

// ErrStreamClosed is wrapped by reads on a closed stream.
var ErrStreamClosed = fmt.Errorf("storage: stream closed")

// SegID identifies a stored segment.
type SegID uint64

// String formats the segment ID.
func (s SegID) String() string { return fmt.Sprintf("seg:%d", uint64(s)) }

// Segment is one stored media value: the value plus its physical
// placement.
type Segment struct {
	id     SegID
	value  media.Value
	devID  string
	disc   int // jukebox disc, -1 on disks
	size   int64
	frames int

	// Stripe map, nil/empty for unstriped segments.  chunkDev/chunkOff/
	// chunkSize also serve scheduled unstriped streams (built at the
	// first chunk read, see Stream.layoutLocked); once built the map is
	// immutable.
	stripe    []string // disk IDs in round-robin order
	base      []int64  // allocation base offset on each stripe disk
	perDev    []int64  // bytes allocated per stripe disk
	chunkDev  []int    // chunk -> index into stripe
	chunkOff  []int64  // chunk -> byte offset within its disk's share
	chunkSize []int64  // chunk -> size in bytes
	chunkTrck []int    // chunk -> home track, cached once (see buildTrackMap)

	// Tiering state, guarded by the store lock (see tier.go).
	pop         float64          // decayed access popularity
	popAt       avtime.WorldTime // when pop was last decayed
	promoted    bool             // jukebox value with a live disk-tier copy
	openStreams int              // open streams; demotion is gated on zero
	replicas    []*segReplica    // extra copies across stripe groups
}

// ID returns the segment's identifier.
func (s *Segment) ID() SegID { return s.id }

// Value returns the stored media value.
func (s *Segment) Value() media.Value { return s.value }

// Size returns the stored size in bytes.
func (s *Segment) Size() int64 { return s.size }

// String describes the segment.
func (s *Segment) String() string {
	if len(s.stripe) > 0 {
		return fmt.Sprintf("%v striped over %v (%d bytes)", s.id, s.stripe, s.size)
	}
	if s.disc >= 0 {
		return fmt.Sprintf("%v on %s disc %d (%d bytes)", s.id, s.devID, s.disc, s.size)
	}
	return fmt.Sprintf("%v on %s (%d bytes)", s.id, s.devID, s.size)
}

// Store places media values on devices.
type Store struct {
	devices *device.Manager

	mu       sync.Mutex
	nextID   SegID
	nextSID  int64 // stream IDs: the round scheduler's total order
	segments map[SegID]*Segment
	sink     obs.Sink
	m        storeMetrics // the sink's handles
	policy   CachePolicy
	striping StripePolicy
	tiering  TierPolicy
	io       *ioSched    // non-nil once a Seeks/Rounds policy was installed
	pool     *bufferPool // non-nil once a caching policy opened a stream
	open     int64       // the open storage round: the last closed round + 1
}

// storeMetrics holds an installed sink's storage handles; all nil
// without one.
type storeMetrics struct {
	streamsOpened, reads, readBytes *obs.Counter
	readTime                        *obs.Histogram

	promotions, promoteFailed, replicas, swaps, demotions *obs.Counter
}

func newStoreMetrics(s obs.Sink) storeMetrics {
	if s == nil {
		return storeMetrics{}
	}
	return storeMetrics{
		streamsOpened: s.Counter("storage.streams_opened"),
		reads:         s.Counter("storage.reads"),
		readBytes:     s.Counter("storage.read_bytes"),
		readTime:      s.Histogram("storage.read_time_us"),
		promotions:    s.Counter("storage.tier.promotions"),
		promoteFailed: s.Counter("storage.tier.promote_failed"),
		replicas:      s.Counter("storage.tier.replicas"),
		swaps:         s.Counter("storage.tier.swaps"),
		demotions:     s.Counter("storage.tier.demotions"),
	}
}

// SetCachePolicy configures chunk caching for streams opened afterwards;
// already-open streams keep the policy (and the shared pool) they were
// opened with — changing the policy retires the current pool, and later
// streams share a fresh one.  Retiring commits the pool's staged ops;
// a read through the retired pool is no read of the store's current
// pool, so it applies at once and no close has to reach it.  The zero
// policy disables caching.
func (st *Store) SetCachePolicy(p CachePolicy) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if p != st.policy && st.pool != nil {
		st.pool.closeRound()
		st.pool = nil
	}
	st.policy = p
}

// CloseRound ends storage round T.  The store keeps one round open, its
// mark: the last closed round + 1.  If T is at or past the mark, the
// open round's SCAN-EDF batches are serviced — disks in ID order — and
// then the buffer pool's staged ops commit in staging order, and the
// mark moves to T+1; a T below the mark closes nothing.  The engine
// calls it once, as the last act of step T; reads never service or
// commit.
func (st *Store) CloseRound(round int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if round < st.open {
		return
	}
	st.open = round + 1
	if st.io != nil {
		st.io.closeRound()
	}
	if st.pool != nil {
		st.pool.closeRound()
	}
}

// SetSink installs an observability sink.  Streams opened afterwards
// emit storage.reads / read_bytes / streams_opened counters and
// observe read costs into storage.read_time_us.
func (st *Store) SetSink(s obs.Sink) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sink = s
	st.m = newStoreMetrics(s)
	if st.io != nil {
		st.io.m = newIOMetrics(s)
	}
	if st.pool != nil {
		st.pool.m = newPoolMetrics(s)
	}
}

// PoolStats snapshots the shared buffer pool's aggregate behavior; the
// zero value when no caching stream ever opened.  The aggregate
// outlives streams: closing one no longer discards its cache history.
func (st *Store) PoolStats() PoolStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pool == nil {
		return PoolStats{}
	}
	return st.pool.stats()
}

// NewStore returns a store over the given device manager.
func NewStore(devices *device.Manager) *Store {
	return &Store{devices: devices, nextID: 1, segments: make(map[SegID]*Segment)}
}

// Place stores a value on the named disk device.
func (st *Store) Place(v media.Value, deviceID string) (*Segment, error) {
	d, err := st.disk(deviceID)
	if err != nil {
		return nil, err
	}
	size := v.Size()
	if err := d.Allocate(size); err != nil {
		return nil, err
	}
	return st.register(v, deviceID, -1, size), nil
}

// PlaceOnDisc stores a value on one disc of a jukebox.
func (st *Store) PlaceOnDisc(v media.Value, deviceID string, disc int) (*Segment, error) {
	j, err := st.jukebox(deviceID)
	if err != nil {
		return nil, err
	}
	size := v.Size()
	if err := j.Allocate(disc, size); err != nil {
		return nil, err
	}
	return st.register(v, deviceID, disc, size), nil
}

// PlaceAuto stores a value on an automatically chosen disk, load-aware:
// among the disks with room for the value that can sustain the given
// streaming rate, it picks the one with the most free bandwidth —
// spreading concurrent streams over spindles instead of piling them on
// the emptiest disk — breaking ties by free capacity and then by device
// ID so the choice is deterministic.
func (st *Store) PlaceAuto(v media.Value, rate media.DataRate) (*Segment, error) {
	ranked := st.rankedDisks(v.Size(), rate)
	if len(ranked) == 0 {
		return nil, fmt.Errorf("%w: no disk with %d bytes free and %v bandwidth", ErrNoPlacement, v.Size(), rate)
	}
	return st.Place(v, ranked[0].d.ID())
}

func (st *Store) register(v media.Value, devID string, disc int, size int64) *Segment {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := &Segment{id: st.nextID, value: v, devID: devID, disc: disc, size: size, frames: v.NumElements()}
	st.nextID++
	st.segments[s.id] = s
	return s
}

// Get returns a segment by ID.
func (st *Store) Get(id SegID) (*Segment, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.segments[id]
	return s, ok
}

// Delete removes a segment and frees its space.  The placement fields
// are captured under the store lock so a racing Move can neither make
// Delete free the wrong device nor free the same allocation twice.
func (st *Store) Delete(id SegID) error {
	st.mu.Lock()
	s, ok := st.segments[id]
	var devID string
	var disc int
	var size int64
	if ok {
		delete(st.segments, id)
		devID, disc, size = s.devID, s.disc, s.size
	}
	st.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoSegment, id)
	}
	if s.Striped() {
		for k, sid := range s.stripe {
			if dev, found := st.devices.Get(sid); found {
				if d, isDisk := dev.(*device.Disk); isDisk {
					d.Free(s.perDev[k])
				}
			}
		}
		for _, rep := range s.replicas {
			for k, d := range rep.disks {
				d.Free(rep.perDev[k])
			}
		}
		// A promoted value keeps its archival jukebox copy; free it too.
		if s.promoted && disc >= 0 {
			if j, err := st.jukebox(devID); err == nil {
				j.Free(disc, size)
			}
		}
		return nil
	}
	dev, found := st.devices.Get(devID)
	if !found {
		return fmt.Errorf("storage: segment %v references missing device: %w: %q", id, device.ErrNoDevice, devID)
	}
	switch d := dev.(type) {
	case *device.Disk:
		d.Free(size)
	case *device.Jukebox:
		d.Free(disc, size)
	}
	return nil
}

// Move relocates a segment to another disk, returning the world time the
// copy occupies: a full read from the source plus a full write to the
// destination.
func (st *Store) Move(id SegID, toDevice string) (avtime.WorldTime, error) {
	st.mu.Lock()
	s, ok := st.segments[id]
	var srcID string
	var srcDisc int
	var size int64
	var striped bool
	if ok {
		srcID, srcDisc, size, striped = s.devID, s.disc, s.size, s.Striped()
	}
	st.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrNoSegment, id)
	}
	if striped {
		return 0, fmt.Errorf("%w: %v cannot be moved; delete and re-place it", ErrStriped, id)
	}
	dst, err := st.disk(toDevice)
	if err != nil {
		return 0, err
	}
	if srcID == toDevice {
		return 0, nil
	}
	var readTime avtime.WorldTime
	srcDev, found := st.devices.Get(srcID)
	if !found {
		return 0, fmt.Errorf("storage: segment %v references missing device: %w: %q", id, device.ErrNoDevice, srcID)
	}
	switch d := srcDev.(type) {
	case *device.Disk:
		readTime = d.TransferTime(size, 1)
	case *device.Jukebox:
		t, err := d.AccessTime(srcDisc, size)
		if err != nil {
			return 0, err
		}
		readTime = t
	}
	if err := dst.Allocate(size); err != nil {
		return 0, err
	}
	writeTime := dst.TransferTime(size, 1)
	// Commit the relocation, but only if the segment still exists with
	// the placement we copied from: a Delete or competing Move that won
	// the race already freed (or will free) the source, and freeing it
	// again here would corrupt the space accounting and leak the
	// destination allocation on a dead segment.
	st.mu.Lock()
	cur, live := st.segments[id]
	if !live || cur != s || s.devID != srcID || s.disc != srcDisc {
		st.mu.Unlock()
		dst.Free(size)
		return 0, fmt.Errorf("%w: %v deleted or relocated during copy", ErrNoSegment, id)
	}
	s.devID, s.disc = toDevice, -1
	st.mu.Unlock()
	// Free the old placement.
	switch d := srcDev.(type) {
	case *device.Disk:
		d.Free(size)
	case *device.Jukebox:
		d.Free(srcDisc, size)
	}
	return readTime + writeTime, nil
}

func (st *Store) disk(deviceID string) (*device.Disk, error) {
	dev, ok := st.devices.Get(deviceID)
	if !ok {
		return nil, fmt.Errorf("storage: %w: %q", device.ErrNoDevice, deviceID)
	}
	d, ok := dev.(*device.Disk)
	if !ok {
		return nil, fmt.Errorf("storage: device %q is a %v, not a disk", deviceID, dev.DeviceKind())
	}
	return d, nil
}

func (st *Store) jukebox(deviceID string) (*device.Jukebox, error) {
	dev, ok := st.devices.Get(deviceID)
	if !ok {
		return nil, fmt.Errorf("storage: %w: %q", device.ErrNoDevice, deviceID)
	}
	j, ok := dev.(*device.Jukebox)
	if !ok {
		return nil, fmt.Errorf("storage: device %q is a %v, not a jukebox", deviceID, dev.DeviceKind())
	}
	return j, nil
}

// Stream is an open, bandwidth-reserved read stream over a segment.
// Every field is set at open; open, slot, mapped, startup, bytes,
// readFrac and cstats then change under the store's lock.
type Stream struct {
	st   *Store
	seg  *Segment
	dev  device.Device
	rate media.DataRate

	sid int64 // open order: the round scheduler's total order

	// Striped and scheduled streams only.
	disks  []*device.Disk   // stripe home disks, nil when unstriped
	shares []media.DataRate // per-disk reservation, sums to rate
	io     *ioSched         // non-nil under a Seeks or Rounds policy
	rounds bool             // submit/consume through service rounds
	seeks  bool             // contended pricing: every demand read seeks
	unit   avtime.WorldTime // playback interval between chunk deadlines
	reps   []*segReplica    // replica snapshot taken at open time

	open     bool
	slot     ioSlot           // the scheduler's serviced result for this stream
	mapped   bool             // layoutLocked has run
	startup  avtime.WorldTime // positioning cost charged on the first read
	bytes    int64
	readFrac float64      // fraction of each chunk scheduled reads transfer; 0 = full
	m        storeMetrics // copied from the store at open time

	// Shared buffer pool attachment; nil when caching is disabled.
	pool   *bufferPool
	pid    int64      // pool-attach order, attributes staged inserts
	pslot  int32      // the segment's slot in the pool (poolKey.seg)
	cstats CacheStats // this stream's view of pool behavior
}

// OpenStream reserves rate on the segment's device and returns a stream.
// It fails when the device cannot sustain the rate alongside existing
// reservations — the storage half of admission control.  For jukebox
// segments the returned startup time includes a disc swap if needed.
// For striped segments a 1/width share of the rate is reserved on every
// stripe disk, so the stream's effective bandwidth spans all of them.
// The store's stripe policy applies; OpenStreamWith overrides it.
func (st *Store) OpenStream(id SegID, rate media.DataRate) (*Stream, avtime.WorldTime, error) {
	return st.OpenStreamWith(id, rate, st.Striping())
}

// OpenStreamWith opens a stream under an explicit stripe policy instead
// of the store-wide one (the policy's Width is placement-time and
// ignored here).
func (st *Store) OpenStreamWith(id SegID, rate media.DataRate, policy StripePolicy) (*Stream, avtime.WorldTime, error) {
	st.mu.Lock()
	s, ok := st.segments[id]
	st.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %v", ErrNoSegment, id)
	}
	if rate <= 0 {
		return nil, 0, fmt.Errorf("storage: stream rate must be positive, got %v", rate)
	}
	stream := &Stream{st: st, seg: s, rate: rate, open: true}
	swapped := false
	if s.Striped() {
		disks := make([]*device.Disk, len(s.stripe))
		for k, devID := range s.stripe {
			d, err := st.disk(devID)
			if err != nil {
				return nil, 0, err
			}
			disks[k] = d
		}
		shares := shareRate(rate, len(disks))
		var startup avtime.WorldTime
		for k, d := range disks {
			if err := d.Reserve(shares[k]); err != nil {
				for u := 0; u < k; u++ {
					disks[u].Release(shares[u])
				}
				return nil, 0, fmt.Errorf("storage: stripe disk %q: %w", d.ID(), err)
			}
			if t := d.SeekTime(); t > startup {
				startup = t
			}
		}
		stream.dev, stream.disks, stream.shares, stream.startup = disks[0], disks, shares, startup
	} else {
		dev, found := st.devices.Get(s.devID)
		if !found {
			return nil, 0, fmt.Errorf("storage: segment %v references missing device: %w: %q", id, device.ErrNoDevice, s.devID)
		}
		var startup avtime.WorldTime
		switch d := dev.(type) {
		case *device.Disk:
			if err := d.Reserve(rate); err != nil {
				return nil, 0, err
			}
			startup = d.SeekTime()
		case *device.Jukebox:
			if err := d.Reserve(rate); err != nil {
				return nil, 0, err
			}
			swapped = !d.DiscLoaded(s.disc)
			t, err := d.AccessTime(s.disc, 0)
			if err != nil {
				d.Release(rate)
				return nil, 0, err
			}
			startup = t
		default:
			return nil, 0, fmt.Errorf("storage: device %q cannot stream", s.devID)
		}
		stream.dev, stream.startup = dev, startup
	}
	st.mu.Lock()
	stream.m = st.m
	stream.reps = s.replicas
	stream.seeks = policy.Seeks
	stream.sid = st.nextSID
	st.nextSID++
	if st.policy.Enabled() {
		if st.pool == nil {
			st.pool = newBufferPool(st.policy, st.sink)
		}
		stream.pool = st.pool
	}
	if policy.Seeks || policy.Rounds {
		if st.io == nil {
			st.io = newIOSched(st.sink)
		}
		stream.io = st.io
	}
	if policy.Rounds {
		// Rounds route chunks to tracks, which needs the chunk layout
		// (layoutLocked builds it at the first chunk read).  Jukebox
		// segments stay on the demand path: one read head has nothing to
		// batch.
		_, onDisk := stream.dev.(*device.Disk)
		if s.Striped() || onDisk {
			stream.rounds = true
			stream.unit = s.value.Type().Rate.UnitDuration()
		}
	}
	if stream.pool != nil {
		stream.pid, stream.pslot = stream.pool.attach(s)
	}
	s.openStreams++
	st.mu.Unlock()
	stream.m.streamsOpened.Add(1)
	if swapped {
		// An un-promoted value paid the platter swap on open.
		stream.m.swaps.Add(1)
	}
	return stream, stream.startup, nil
}

// ReadTime accounts a read of the given bytes and reports the world time
// it occupies at the reserved rate.  The stream's startup cost — a seek,
// or a disc swap on the jukebox — is charged to the first read.
func (s *Stream) ReadTime(bytes int64) (avtime.WorldTime, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("storage: negative read %d", bytes)
	}
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	if !s.open {
		return 0, fmt.Errorf("%w: read on closed stream", ErrStreamClosed)
	}
	t := avtime.WorldTime(bytes*int64(avtime.Second)/int64(s.rate)) + s.startup
	s.startup = 0
	return s.readDone(bytes, t), nil
}

// readDone accounts a completed read of bytes that took t to the stream
// and its sink, and returns t; the caller holds the store's lock.
func (s *Stream) readDone(bytes int64, t avtime.WorldTime) avtime.WorldTime {
	s.bytes += bytes
	s.m.reads.Add(1)
	s.m.readBytes.Add(bytes)
	s.m.readTime.Observe(int64(t))
	return t
}

// ReadChunkTimeAt accounts a read of the segment's idx'th chunk and
// reports the world time it occupies.  Without a cache policy it behaves
// exactly like ReadTime.  With one, a resident chunk costs zero device
// time — the prefetcher staged it overlapped with earlier playback, on
// bandwidth the stream already has reserved.  A demand miss pays the
// full device read (including any startup cost), then stages the next
// Lookahead chunks.
//
// The read is deadline-tagged: round is the caller's storage round (the
// engine's step), now the tick's world time, and deadline the moment
// the chunk must be presentable.  The read decides once, under the
// store's lock, whether it belongs to the open round: its round is the
// store's mark.  Under a Rounds policy such a read consumes the
// scheduled result for this chunk if the last closed round prefetched
// it (paying its SCAN-EDF amortized cost instead of a full seek), and
// then submits the following chunk into the open round tagged
// deadline+unit; if the stream reads through the store's current pool,
// its pool touches and inserts are staged for the round's close.  A
// chunk nothing prefetched — the first read, a jump — is a demand read.
// Any other read — round < 0, a straggler below the mark, a round ahead
// of it, a read through a pool a policy change retired — reads in
// immediate mode: a demand read that submits nothing, with its pool ops
// applied at once.  The read neither services rounds nor commits the
// pool's staged ops: CloseRound does both.
func (s *Stream) ReadChunkTimeAt(idx int, bytes int64, round int64, now, deadline avtime.WorldTime) (avtime.WorldTime, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("storage: negative read %d", bytes)
	}
	if idx < 0 {
		return 0, fmt.Errorf("storage: negative chunk index %d", idx)
	}
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if !s.open {
		return 0, fmt.Errorf("%w: read on closed stream", ErrStreamClosed)
	}
	if s.rounds && !s.mapped {
		if err := s.layoutLocked(); err != nil {
			return 0, err
		}
	}
	inRound := round == st.open
	scheduled := s.rounds && inRound
	stage := inRound && s.pool == st.pool
	if s.pool != nil {
		if hit, shared := s.pool.read(s.pid, poolKey{seg: s.pslot, chunk: idx}, stage); hit {
			if shared {
				s.cstats.Shared++
			}
			s.cstats.Hits++
			s.bytes += bytes
			// A hit makes any scheduled result for this stream moot.
			s.slot.full = false
			return 0, nil
		}
	}
	var t avtime.WorldTime
	if !scheduled {
		t = s.readChunkLocked(idx, bytes)
	} else if cost, ok := s.slot.take(idx); ok {
		// Consume the round-serviced prefetch.
		t = s.readDone(bytes, cost)
	} else {
		t = s.readChunkLocked(idx, bytes)
	}
	if scheduled {
		var next ioReq
		if s.stageNext(idx, now, deadline, &next) {
			s.io.submit(next)
		}
	}
	if s.pool == nil {
		return t, nil
	}
	s.cstats.Misses++
	s.pool.miss()
	staged, evicted := s.pool.fill(s.pid, s.pslot, idx, s.pool.policy.Lookahead, s.seg.frames-1, stage)
	s.cstats.Prefetched += int64(staged)
	s.cstats.Evicted += int64(evicted)
	return t, nil
}

// layoutLocked makes the segment's chunk and track maps exist for a
// scheduled stream.  They are built at the stream's first chunk read, not
// at open, so a stream only ever read by size — an audio reader's, where
// a chunk is a sample — never builds a per-sample map.  The caller holds
// the store's lock, which every stream passes through before it reads
// the maps, so once built they are immutable to all readers.
func (s *Stream) layoutLocked() error {
	seg := s.seg
	if seg.chunkDev == nil {
		if err := seg.buildChunkMap(1); err != nil {
			return err
		}
	}
	if seg.chunkTrck == nil {
		if s.disks != nil {
			seg.buildTrackMap(s.disks)
		} else if d, isDisk := s.dev.(*device.Disk); isDisk {
			seg.buildTrackMap([]*device.Disk{d})
		}
	}
	s.mapped = true
	return nil
}

// chunkDevice returns the device holding the given chunk: the stripe
// home disk for striped segments, the segment's device otherwise.
func (s *Stream) chunkDevice(idx int) device.Device {
	if s.disks != nil && s.seg.chunkDev != nil && idx < len(s.seg.chunkDev) {
		return s.disks[s.seg.chunkDev[idx]]
	}
	return s.dev
}

// chunkHome resolves the disk and track holding a chunk; ok is false for
// chunks outside the map or segments without one (jukebox).  The track
// comes from the segment's cache when one was built (every scheduled
// open builds it), so the hot submit path pays no per-read geometry
// math or device lock.
func (s *Stream) chunkHome(idx int) (*device.Disk, int, bool) {
	if s.seg.chunkDev == nil || idx >= len(s.seg.chunkDev) {
		return nil, 0, false
	}
	k := s.seg.chunkDev[idx]
	var d *device.Disk
	if s.disks != nil {
		d = s.disks[k]
	} else if dd, isDisk := s.dev.(*device.Disk); isDisk {
		d = dd
	} else {
		return nil, 0, false
	}
	if s.seg.chunkTrck != nil {
		return d, s.seg.chunkTrck[idx], true
	}
	var base int64
	if s.seg.base != nil {
		base = s.seg.base[k]
	}
	return d, d.TrackOf(base + s.seg.chunkOff[idx]), true
}

// readChunkLocked prices one demand chunk read on the chunk's home
// device; the caller holds the store's lock.  Under contended pricing
// (Seeks) every demand read pays the home disk's positioning cost, not
// just the first; the startup charge doubles as the first read's seek.
func (s *Stream) readChunkLocked(idx int, bytes int64) avtime.WorldTime {
	t := avtime.WorldTime(bytes * int64(avtime.Second) / int64(s.rate))
	seeked := false
	if s.startup > 0 {
		t += s.startup
		s.startup = 0
		seeked = true
	} else if s.seeks {
		if d, isDisk := s.chunkDevice(idx).(*device.Disk); isDisk {
			t += d.SeekTime()
			seeked = true
		}
	}
	if s.io != nil {
		s.io.noteDemand(seeked)
	}
	return s.readDone(bytes, t)
}

// stageNext fills req with the request for the chunk after idx, due one
// playback unit past the consumed chunk's deadline, reporting false when
// there is nothing to prefetch (end of clip, unmapped chunk); the caller
// holds the store's lock.
func (s *Stream) stageNext(idx int, now, deadline avtime.WorldTime, req *ioReq) bool {
	next := idx + 1
	if next >= s.seg.frames {
		return false
	}
	d, track, ok := s.chunkHome(next)
	if !ok {
		return false
	}
	bytes := s.seg.chunkSize[next]
	if s.readFrac > 0 && s.readFrac < 1 {
		bytes = int64(float64(bytes) * s.readFrac)
		if bytes < 1 {
			bytes = 1
		}
	}
	*req = ioReq{
		sid:      s.sid,
		chunk:    next,
		bytes:    bytes,
		disk:     d,
		track:    track,
		rate:     s.rate,
		now:      now,
		deadline: deadline + s.unit,
		slot:     &s.slot,
	}
	// Replicated chunks offer the scheduler alternates: at service time the
	// round routes the request to the least-loaded copy (see
	// assignFlexLocked), so concurrent sessions fan out across stripe
	// groups instead of queueing on one disk's round.
	for _, rep := range s.reps {
		if int(req.nalt) == len(req.alts) {
			break
		}
		k := s.seg.chunkDev[next]
		req.alts[req.nalt] = ioAlt{disk: rep.disks[k], track: rep.chunkTrck[next]}
		req.nalt++
	}
	return true
}

// SetPayloadBytes tells the stream the total size of the representation
// it is now delivering.  A degraded consumer views the stored value at
// lower quality by ignoring part of the encoded data, so when the
// payload shrinks below the placed segment's size, scheduled prefetches
// transfer only the matching fraction of each chunk — the point of
// degrading under pressure is that the disk rounds get shorter.  A total
// of zero, or one at least the segment size, restores full-chunk reads.
func (s *Stream) SetPayloadBytes(total int64) {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	if total <= 0 || s.seg.size <= 0 || total >= s.seg.size {
		s.readFrac = 0
		return
	}
	s.readFrac = float64(total) / float64(s.seg.size)
}

// CacheStats reports this stream's view of the shared pool — its own
// hits, misses and prefetches; the zero value when caching is disabled.
// Evictions under scheduled reads land on the pool aggregate
// (Store.PoolStats), which also survives the stream closing.
func (s *Stream) CacheStats() CacheStats {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return s.cstats
}

// Close releases the reserved bandwidth.  Closing twice is a no-op.
// The release goes to the device(s) the reservation was made on at open
// time — not a fresh lookup of the segment's placement, which a
// concurrent Move may have redirected (releasing on the new device would
// leak the old reservation and corrupt the new device's accounting).
func (s *Stream) Close() {
	st := s.st
	st.mu.Lock()
	if !s.open {
		st.mu.Unlock()
		return
	}
	s.open = false
	s.slot.full = false
	if s.pool != nil {
		s.pool.detach(s.pslot)
	}
	s.seg.openStreams--
	st.mu.Unlock()
	s.releaseReservations()
}

// releaseReservations returns the bandwidth reserved at open time.
func (s *Stream) releaseReservations() {
	if s.disks != nil {
		for k, d := range s.disks {
			d.Release(s.shares[k])
		}
		return
	}
	switch d := s.dev.(type) {
	case *device.Disk:
		d.Release(s.rate)
	case *device.Jukebox:
		d.Release(s.rate)
	}
}
