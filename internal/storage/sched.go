package storage

// sched.go implements IOSched, the per-device round scheduler.  Streams
// driven by a graph run submit the *next* chunk they will need once the
// read of the current one succeeds; all requests submitted during one
// graph tick form a round.  When the first stream of a later tick
// consumes its result, every complete earlier round is serviced: each
// disk's batch is ordered SCAN-EDF — earliest playback deadline first,
// ties by track position, then stream — and charged one positioned seek
// per run of adjacent tracks instead of one full seek per chunk.
//
// Determinism is structural.  The tick barrier guarantees that every
// submission of round T happens before any activity of tick T+1 runs,
// so by the time flushBefore(T+1) fires, round T's batch content is
// complete and identical no matter in which order tick T's streams
// submitted.  The SCAN-EDF sort key (deadline,
// track, stream, chunk) is total — sid is unique within one disk's batch
// because a stream resubmitting in the same round replaces its previous
// request, so no two distinct batch members ever compare equal (pinned
// by TestSCANEDFKeyTotalOrder) — and therefore the service order, the
// per-disk head walk, every seek charge and every counter are
// independent of submission order.  Within one flush, rounds are
// serviced in ascending round order and disks in ID order.
//
// The same argument covers submissions from different sessions: every
// method that touches shared scheduler state takes io.mu, because
// clients call into the store from their own goroutines, and the total
// key makes any interleaving invisible.  Service itself is serialized
// by the flushed watermark — the first read of step T+1 to reach
// flushBefore(T+1) services every complete round while later readers
// pass the lock-free watermark check — and demand reads price seeks
// from the stream's own recorded position without moving the shared
// per-disk heads, so only watermark-ordered service advances them.
// TestConcurrentSubmitDeterminism pins this under the race detector.
//
// The hot path is allocation-free in steady state (pinned by
// TestIOSchedAllocsPerRun).  Rounds live in flat, reusable buffers: a
// schedRound holds one diskBatch per disk, kept sorted by device ID, and
// each batch keeps its requests sorted by the SCAN-EDF key from the
// moment they are inserted — deadline-bucketed insertion at enqueue —
// so flushing a round walks the batches in final service order with no
// sort at all.  Retired rounds are recycled through a per-IOSched free
// list (their batch and request capacity survives the round trip), so
// once the buffers are warm the scheduled chunk path allocates nothing.
// The retained reference
// implementation of the original map+sort scheduler lives in
// sched_reference_test.go; the differential harness
// (sched_differential_test.go, FuzzSCANEDFOrder) proves the two produce
// byte-identical service orders, seek charges and metrics.
//
// IOSched runs entirely in virtual time: servicing a batch prices the
// requests, it does not block anything.

import (
	"sync"
	"sync/atomic"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/obs"
)

// ioReq is one stream's request for one chunk, tagged with the playback
// deadline its consumer attached.  The SCAN-EDF sort key is the field
// tuple (deadline, track, sid, chunk); track is computed once at
// enqueue from the segment's cached track map, never during service.
type ioReq struct {
	sid      int64 // submitting stream
	chunk    int
	bytes    int64
	disk     *device.Disk
	track    int
	rate     media.DataRate   // stream rate, prices the transfer
	now      avtime.WorldTime // submission (tick) time
	deadline avtime.WorldTime // when the chunk must be presentable
	slot     *ioSlot          // where the serviced result lands

	// Replicated chunks carry alternates: the round assigns the request
	// to the least-loaded copy at flush time (assignFlexLocked).  nalt is
	// zero for unreplicated chunks, which skip the flex path entirely.
	alts [3]ioAlt
	nalt uint8
}

// ioAlt is one alternate home for a replicated chunk.
type ioAlt struct {
	disk  *device.Disk
	track int
}

// ioSlot receives a stream's serviced result.  One slot belongs to one
// stream (it is embedded in Stream, so delivering a result is two field
// writes — no per-stream map on the hot path); every access is guarded
// by the owning IOSched's mu.
type ioSlot struct {
	chunk int
	cost  avtime.WorldTime
	disk  *device.Disk // replica that serviced the chunk
	full  bool
}

// reqBefore is the SCAN-EDF total order: earliest deadline first, ties
// by track position, then stream, then chunk.
func reqBefore(a, b *ioReq) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.track != b.track {
		return a.track < b.track
	}
	if a.sid != b.sid {
		return a.sid < b.sid
	}
	return a.chunk < b.chunk
}

// ioResult is a serviced request waiting for its stream to consume it.
type ioResult struct {
	chunk int
	cost  avtime.WorldTime // what the consuming read is charged
	disk  *device.Disk     // replica that serviced the chunk
}

// svcEvent records one serviced request; emitted only when a service
// trace is installed (the differential harness's byte-identical-order
// probe), nil in production.
type svcEvent struct {
	dev   string
	sid   int64
	chunk int
	track int
	seek  avtime.WorldTime
	cost  avtime.WorldTime
}

// IOStats summarizes the scheduler's behavior.
type IOStats struct {
	Rounds         int64 // service rounds completed
	Batches        int64 // per-disk batches serviced
	Scheduled      int64 // requests serviced inside rounds
	Demand         int64 // chunk reads that bypassed the rounds
	SeeksCharged   int64 // positioning costs actually charged (incl. demand)
	SeeksSaved     int64 // scheduled requests that rode an adjacent run for free
	DeadlineMisses int64 // requests whose disk finished past their deadline
	RoundsOverrun  int64 // per-disk batches whose service ran past their last deadline
	Failovers      int64 // reads redirected to a surviving replica after an outage
	MaxBatch       int   // largest per-disk batch seen
}

// diskBatch is one disk's requests for one round, kept in SCAN-EDF
// order from insertion so servicing walks it front to back.
type diskBatch struct {
	devID string
	disk  *device.Disk
	reqs  []ioReq
	load  int64 // bytes queued this round; steers flex assignment
}

// schedRound is one round's batches, kept sorted by device ID, plus the
// flex list: requests for replicated chunks, kept in SCAN-EDF order and
// assigned to the least-loaded copy's batch at flush time.  The struct
// is reused: retiring a round truncates the batches and their request
// slices without releasing capacity.
type schedRound struct {
	seq     int64
	batches []diskBatch
	flex    []ioReq
}

// roundFreeCap bounds the per-IOSched free list; in steady state one
// round retires per flush, so the list stays short.
const roundFreeCap = 8

// IOSched batches chunk requests into per-device service rounds.
type IOSched struct {
	// flushed is the service watermark: rounds below it are priced.  It
	// only grows, and it is read lock-free so every stream after the
	// first in a tick skips the flush lock entirely (a stale read just
	// falls through to the locked re-check).
	flushed atomic.Int64

	mu       sync.Mutex
	m        ioMetrics
	pending  []*schedRound        // unserviced rounds, ascending seq
	free     []*schedRound        // recycled round buffers
	heads    map[*device.Disk]int // disk -> head track after last round
	stats    IOStats
	svcTrace *[]svcEvent // test hook: records service order when non-nil
}

// ioMetrics holds an installed sink's storage.iosched.* handles; all
// nil without one.
type ioMetrics struct {
	rounds, scheduled, seeksCharged, seeksSaved *obs.Counter
	deadlineMisses, overrun, demand             *obs.Counter
	batchSize                                   *obs.Histogram
}

func newIOMetrics(s obs.Sink) ioMetrics {
	if s == nil {
		return ioMetrics{}
	}
	return ioMetrics{
		rounds:         s.Counter("storage.iosched.rounds"),
		scheduled:      s.Counter("storage.iosched.scheduled"),
		seeksCharged:   s.Counter("storage.iosched.seeks_charged"),
		seeksSaved:     s.Counter("storage.iosched.seeks_saved"),
		deadlineMisses: s.Counter("storage.iosched.deadline_misses"),
		overrun:        s.Counter("storage.iosched.overrun"),
		demand:         s.Counter("storage.iosched.demand"),
		batchSize:      s.Histogram("storage.iosched.batch_size"),
	}
}

func newIOSched(sink obs.Sink) *IOSched {
	return &IOSched{
		m:     newIOMetrics(sink),
		heads: make(map[*device.Disk]int),
	}
}

// setSink swaps the observability sink (streams opened later observe
// through the store's current sink; the scheduler follows it).
func (io *IOSched) setSink(s obs.Sink) {
	m := newIOMetrics(s)
	io.mu.Lock()
	io.m = m
	io.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (io *IOSched) Stats() IOStats {
	io.mu.Lock()
	defer io.mu.Unlock()
	return io.stats
}

// getRound returns a reset round buffer, recycled when one is free.
func (io *IOSched) getRound() *schedRound {
	if n := len(io.free); n > 0 {
		r := io.free[n-1]
		io.free[n-1] = nil
		io.free = io.free[:n-1]
		return r
	}
	return new(schedRound)
}

// putRound recycles a serviced round onto a free list with room,
// keeping every batch's request capacity alive under the truncated
// length so the next use of the buffer allocates nothing.
func (io *IOSched) putRound(r *schedRound) {
	if len(io.free) == roundFreeCap {
		return
	}
	for i := range r.batches {
		r.batches[i].disk = nil
		r.batches[i].reqs = r.batches[i].reqs[:0]
		r.batches[i].load = 0
	}
	r.batches = r.batches[:0]
	r.flex = r.flex[:0]
	io.free = append(io.free, r)
}

// roundFor finds or inserts the pending round with the given sequence
// number, keeping io.pending sorted ascending; io.mu is held.  Rounds
// arrive in nearly ascending order, so the scan runs from the back.
func (io *IOSched) roundFor(seq int64) *schedRound {
	n := len(io.pending)
	i := n
	for i > 0 {
		r := io.pending[i-1]
		if r.seq == seq {
			return r
		}
		if r.seq < seq {
			break
		}
		i--
	}
	r := io.getRound()
	r.seq = seq
	io.pending = append(io.pending, nil)
	copy(io.pending[i+1:], io.pending[i:])
	io.pending[i] = r
	return r
}

// batchFor finds or inserts the round's batch for the given disk,
// keeping batches sorted by device ID.  Growing into the truncated
// region of a recycled buffer reclaims the spare element's request
// capacity instead of dropping it.
func (r *schedRound) batchFor(d *device.Disk) *diskBatch {
	id := d.ID()
	n := len(r.batches)
	i := 0
	for i < n {
		if r.batches[i].disk == d {
			return &r.batches[i]
		}
		if r.batches[i].devID > id {
			break
		}
		i++
	}
	var spare []ioReq
	if n < cap(r.batches) {
		r.batches = r.batches[:n+1]
		spare = r.batches[n].reqs[:0]
	} else {
		r.batches = append(r.batches, diskBatch{})
	}
	copy(r.batches[i+1:], r.batches[i:n])
	r.batches[i] = diskBatch{devID: id, disk: d, reqs: spare}
	return &r.batches[i]
}

// insert places q at its SCAN-EDF position.  A request from the same
// stream already in the batch is replaced — resubmitting in one round
// stays idempotent, and keeps sid unique so the sort key stays total.
func (b *diskBatch) insert(q ioReq) {
	for j := range b.reqs {
		if b.reqs[j].sid == q.sid {
			b.load -= b.reqs[j].bytes
			copy(b.reqs[j:], b.reqs[j+1:])
			b.reqs = b.reqs[:len(b.reqs)-1]
			break
		}
	}
	lo, hi := 0, len(b.reqs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if reqBefore(&b.reqs[mid], &q) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b.reqs = append(b.reqs, ioReq{})
	copy(b.reqs[lo+1:], b.reqs[lo:])
	b.reqs[lo] = q
	b.load += q.bytes
}

// addReq routes a request into the round: unreplicated chunks go
// straight to their disk's batch, replicated ones to the flex list for
// least-loaded assignment at flush time.
func (r *schedRound) addReq(q ioReq) {
	if q.nalt == 0 {
		r.batchFor(q.disk).insert(q)
	} else {
		r.flexInsert(q)
	}
}

// flexInsert places q at its SCAN-EDF position in the flex list with
// the same same-stream replacement rule as diskBatch.insert.
func (r *schedRound) flexInsert(q ioReq) {
	for j := range r.flex {
		if r.flex[j].sid == q.sid {
			copy(r.flex[j:], r.flex[j+1:])
			r.flex = r.flex[:len(r.flex)-1]
			break
		}
	}
	lo, hi := 0, len(r.flex)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if reqBefore(&r.flex[mid], &q) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r.flex = append(r.flex, ioReq{})
	copy(r.flex[lo+1:], r.flex[lo:])
	r.flex[lo] = q
}

// loadOf reports the bytes already queued on a disk's batch this round.
func (r *schedRound) loadOf(d *device.Disk) int64 {
	for i := range r.batches {
		if r.batches[i].disk == d {
			return r.batches[i].load
		}
	}
	return 0
}

// assignFlexLocked routes every flex request to the least-loaded copy.
// The flex list is in SCAN-EDF order — a total key — so the greedy
// walk, and therefore every assignment, is independent of submission
// order; ties in load go to the lower device ID.  Earlier assignments
// count toward later ones' load, spreading a burst of hot-clip readers
// across the stripe groups.  io.mu is held.
func (io *IOSched) assignFlexLocked(r *schedRound) {
	for i := range r.flex {
		q := r.flex[i]
		best, bestTrack := q.disk, q.track
		bestLoad := r.loadOf(best)
		for a := 0; a < int(q.nalt); a++ {
			alt := q.alts[a]
			l := r.loadOf(alt.disk)
			if l < bestLoad || (l == bestLoad && alt.disk.ID() < best.ID()) {
				best, bestTrack, bestLoad = alt.disk, alt.track, l
			}
		}
		q.disk, q.track, q.nalt = best, bestTrack, 0
		r.batchFor(best).insert(q)
	}
	r.flex = r.flex[:0]
}

// submit queues a request into the given round.  A stream resubmitting
// in the same round replaces its previous request, so retried reads stay
// idempotent.
func (io *IOSched) submit(round int64, q ioReq) {
	io.mu.Lock()
	defer io.mu.Unlock()
	if round < io.flushed.Load() {
		// The round was already serviced (a straggler after a seek or
		// degrade); the request becomes a demand read at consumption.
		return
	}
	io.roundFor(round).addReq(q)
}

// flushBefore services every pending round strictly below round, in
// ascending order.  The caller's tick barrier — within a run the end
// of GraphRun.Tick, across sessions the end of the engine step —
// guarantees those rounds are complete.  Concurrent callers race on the
// watermark: exactly one wins and services, the rest exit lock-free,
// and because batch content is already fixed it does not matter which.
func (io *IOSched) flushBefore(round int64) {
	if round <= io.flushed.Load() {
		// Already serviced: the watermark only grows, so this lock-free
		// exit is safe — every stream in a tick after the first takes it.
		return
	}
	io.mu.Lock()
	defer io.mu.Unlock()
	if round <= io.flushed.Load() {
		return
	}
	io.flushed.Store(round)
	for len(io.pending) > 0 && io.pending[0].seq < round {
		r := io.pending[0]
		n := len(io.pending)
		copy(io.pending, io.pending[1:])
		io.pending[n-1] = nil
		io.pending = io.pending[:n-1]
		io.assignFlexLocked(r)
		for i := range r.batches {
			io.serviceLocked(&r.batches[i])
		}
		io.stats.Rounds++
		io.m.rounds.Add(1)
		io.putRound(r)
	}
}

// serviceLocked prices one disk's batch, already in SCAN-EDF order;
// io.mu is held.
func (io *IOSched) serviceLocked(b *diskBatch) {
	batch := b.reqs
	if len(batch) == 0 {
		return
	}
	pos := io.heads[b.disk]
	start := batch[0].now
	for _, q := range batch {
		if q.now < start {
			start = q.now
		}
	}
	var busy avtime.WorldTime
	var misses, charged, saved int64
	last := batch[len(batch)-1].deadline // SCAN-EDF order, so this is the latest
	for i := range batch {
		q := &batch[i]
		var seek avtime.WorldTime
		if i == 0 || abs(q.track-pos) > 1 {
			// A new run: position the head.  Adjacent tracks ride the
			// previous transfer's momentum for free.
			seek = q.disk.SeekBetween(pos, q.track)
		}
		if seek > 0 {
			charged++
		} else {
			saved++
		}
		// The disk is busy for the seek plus the transfer at platter
		// speed; the stream is charged the seek plus the transfer at
		// its reserved rate.
		busy += seek + avtime.WorldTime(q.bytes*int64(avtime.Second)/int64(q.disk.TotalBandwidth()))
		if start+busy > q.deadline {
			misses++
		}
		cost := seek
		if q.rate > 0 {
			cost += avtime.WorldTime(q.bytes * int64(avtime.Second) / int64(q.rate))
		}
		if q.slot != nil {
			q.slot.chunk, q.slot.cost, q.slot.disk, q.slot.full = q.chunk, cost, q.disk, true
		}
		if io.svcTrace != nil {
			*io.svcTrace = append(*io.svcTrace, svcEvent{
				dev: b.devID, sid: q.sid, chunk: q.chunk, track: q.track, seek: seek, cost: cost,
			})
		}
		pos = q.track
	}
	io.heads[b.disk] = pos
	// An overrun batch is the round-level pressure signal: the disk was
	// still busy when its last request's deadline passed, so the round
	// as scheduled was infeasible — not just one unlucky request late.
	overrun := start+busy > last
	io.stats.Batches++
	io.stats.Scheduled += int64(len(batch))
	io.stats.SeeksCharged += charged
	io.stats.SeeksSaved += saved
	io.stats.DeadlineMisses += misses
	if overrun {
		io.stats.RoundsOverrun++
	}
	if len(batch) > io.stats.MaxBatch {
		io.stats.MaxBatch = len(batch)
	}
	io.m.batchSize.Observe(int64(len(batch)))
	io.m.scheduled.Add(int64(len(batch)))
	if charged > 0 {
		io.m.seeksCharged.Add(charged)
	}
	if saved > 0 {
		io.m.seeksSaved.Add(saved)
	}
	if misses > 0 {
		io.m.deadlineMisses.Add(misses)
	}
	if overrun {
		io.m.overrun.Add(1)
	}
}

// take consumes the serviced result for the stream's chunk.  A stale
// result — the stream sought or degraded past what it had prefetched —
// is discarded so the read falls back to a demand read.
func (io *IOSched) take(slot *ioSlot, chunk int) (ioResult, bool) {
	io.mu.Lock()
	defer io.mu.Unlock()
	if !slot.full {
		return ioResult{}, false
	}
	slot.full = false
	if slot.chunk != chunk {
		return ioResult{}, false
	}
	return ioResult{chunk: slot.chunk, cost: slot.cost, disk: slot.disk}, true
}

// putBack returns a taken result whose read faulted, so a retry
// consumes it again.  The caller's stream lock serializes it against
// every other operation on the slot.
func (io *IOSched) putBack(slot *ioSlot, res ioResult) {
	io.mu.Lock()
	slot.chunk, slot.cost, slot.disk, slot.full = res.chunk, res.cost, res.disk, true
	io.mu.Unlock()
}

// drop discards any serviced result held for the stream (cache hits and
// closes make prefetched results moot).
func (io *IOSched) drop(slot *ioSlot) {
	io.mu.Lock()
	slot.full = false
	io.mu.Unlock()
}

// noteDemand accounts a chunk read that bypassed the rounds, and whether
// it paid a positioning cost.
func (io *IOSched) noteDemand(seeked bool) {
	io.mu.Lock()
	io.stats.Demand++
	io.m.demand.Add(1)
	if seeked {
		io.stats.SeeksCharged++
		io.m.seeksCharged.Add(1)
	}
	io.mu.Unlock()
}

// noteFailover accounts a read redirected to a surviving replica after
// the serviced copy's disk failed.
func (io *IOSched) noteFailover() {
	io.mu.Lock()
	io.stats.Failovers++
	io.mu.Unlock()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
