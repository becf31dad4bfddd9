package storage

// sched.go implements ioSched, the per-device round scheduler.  Streams
// driven by a graph run submit the *next* chunk they will need once the
// read of the current one succeeds; all requests submitted during one
// engine step form a round.  The scheduler holds exactly one round open
// at a time — the store's mark, the engine's current step — in one
// reusable buffer.  When the step ends, the engine closes the round
// (Store.CloseRound): each disk's batch is ordered SCAN-EDF — earliest
// playback deadline first, ties by track position, then stream — and
// charged one positioned seek per run of adjacent tracks instead of one
// full seek per chunk.  Reads never service: a read only takes the
// result its stream's previous request was priced at.
//
// Determinism is structural.  Every submission of round T happens
// during step T, before the engine closes it, so the batch content is
// complete when it is serviced and identical no matter in which order
// the step's streams submitted.  The SCAN-EDF sort key (deadline,
// track, stream, chunk) is total — sid is unique within one disk's batch
// because a stream resubmitting in the same round replaces its previous
// request, so no two distinct batch members ever compare equal (pinned
// by TestSCANEDFKeyTotalOrder) — and therefore the service order, the
// per-disk head walk, every seek charge and every counter are
// independent of submission order.  Disks are serviced in ID order.
// The scheduler holds no round mark: Stream.ReadChunkTimeAt compares
// the read's round with the store's and only a read in the open round
// takes and submits.  Any other read — a straggler below the mark, a
// caller numbering rounds of its own ahead of it, or no round at all —
// is a demand read.  Demand reads price seeks from the stream's own
// recorded position without moving the shared per-disk heads, so only
// round service advances them.
//
// The scheduler has no lock of its own: every method runs with the
// store's lock held, taken once by the store entry point that calls it
// (a chunk read, CloseRound, IOStats, SetSink).
// TestConcurrentSubmitDeterminism pins that reading one round's streams
// from several goroutines leaves the service order and every counter as
// a serial read leaves them.
//
// The hot path is allocation-free in steady state (pinned by
// TestIOSchedAllocsPerRun).  The open round is a flat, reusable buffer:
// one diskBatch per disk, kept sorted by device ID, and each batch keeps
// its requests sorted by the SCAN-EDF key from the moment they are
// inserted, so servicing walks the batches in final service order with
// no sort at all.  Service truncates the buffer without releasing its
// capacity, so once it is warm the scheduled chunk path allocates
// nothing.  The reference map+sort scheduler lives in
// sched_reference_test.go; the differential harness
// (sched_differential_test.go, FuzzSCANEDFOrder) proves the two produce
// byte-identical service orders, seek charges and metrics.
//
// ioSched runs entirely in virtual time: servicing a batch prices the
// requests, it does not block anything.

import (
	"slices"

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
	// to the least-loaded copy at service time (assignFlex).  nalt is
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
// writes — no per-stream map on the hot path).  queued is set while the
// stream has a request in the open round: a stream's first submission
// into a round cannot meet an earlier request of its own, so it skips
// the same-stream scan.
type ioSlot struct {
	chunk  int
	cost   avtime.WorldTime
	full   bool
	queued bool
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
	MaxBatch       int   // largest per-disk batch seen

	// Deprecated: Failovers is always 0 — no read fails over to a
	// replica.  It stays only because the frozen bench/ module reads it.
	Failovers int64
}

// diskBatch is one disk's requests for one round, kept in SCAN-EDF
// order from insertion so servicing walks it front to back.
type diskBatch struct {
	devID string
	disk  *device.Disk
	reqs  []ioReq
	load  int64 // bytes queued this round; steers flex assignment
}

// schedRound is the open round's batches, kept sorted by device ID, plus
// the flex list: requests for replicated chunks, kept in SCAN-EDF order
// and assigned to the least-loaded copy's batch at service time.  The
// buffer is reused: service truncates it, and a batch added later
// reclaims the request capacity left under the truncated length.
type schedRound struct {
	batches []diskBatch
	flex    []ioReq
}

// ioSched batches chunk requests into per-device service rounds.
type ioSched struct {
	round    schedRound // the open round's requests
	m        ioMetrics
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

// newIOSched returns a scheduler with no round submitted and no head
// positioned.
func newIOSched(sink obs.Sink) *ioSched {
	return &ioSched{m: newIOMetrics(sink), heads: make(map[*device.Disk]int)}
}

// batchFor finds or inserts the round's batch for the given disk,
// keeping batches sorted by device ID.  Growing into the truncated
// region of the serviced buffer reclaims the spare element's request
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

// insertReq places q at its SCAN-EDF position in reqs.  With replace, a
// request from the same stream already there is removed first and its
// bytes returned — resubmitting in one round stays idempotent, and sid
// stays unique so the sort key stays total; without it the caller knows
// there is none.
func insertReq(reqs []ioReq, q ioReq, replace bool) (_ []ioReq, replaced int64) {
	for j := 0; replace && j < len(reqs); j++ {
		if reqs[j].sid == q.sid {
			replaced = reqs[j].bytes
			reqs = append(reqs[:j], reqs[j+1:]...)
			break
		}
	}
	lo, hi := 0, len(reqs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if reqBefore(&reqs[mid], &q) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return slices.Insert(reqs, lo, q), replaced
}

// insert places q in the batch (insertReq) and keeps its load.
func (b *diskBatch) insert(q ioReq, replace bool) {
	var replaced int64
	b.reqs, replaced = insertReq(b.reqs, q, replace)
	b.load += q.bytes - replaced
}

// addReq routes a request into the round: unreplicated chunks go
// straight to their disk's batch, replicated ones to the flex list for
// least-loaded assignment at service time.  replace is insertReq's.
func (r *schedRound) addReq(q ioReq, replace bool) {
	if q.nalt == 0 {
		r.batchFor(q.disk).insert(q, replace)
	} else {
		r.flex, _ = insertReq(r.flex, q, replace)
	}
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

// assignFlex routes every flex request to the least-loaded copy.  The
// flex list is in SCAN-EDF order — a total key — so the greedy walk,
// and therefore every assignment, is independent of submission order;
// ties in load go to the lower device ID.  Earlier assignments count
// toward later ones' load, spreading a burst of hot-clip readers across
// the stripe groups.
func (r *schedRound) assignFlex() {
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
		// The stream submitted this very request into the round, so it
		// may also have a direct one on this disk: keep the scan.
		r.batchFor(best).insert(q, true)
	}
	r.flex = r.flex[:0]
}

// submit queues a request into the open round; the caller submits only
// a read of the open round.  A stream resubmitting in the round replaces
// its previous request, so retried reads stay idempotent.  A request
// without a slot is always checked for one.
func (io *ioSched) submit(q ioReq) {
	replace := true
	if q.slot != nil {
		replace = q.slot.queued
		q.slot.queued = true
	}
	io.round.addReq(q, replace)
}

// closeRound services the open round, if anything was submitted into
// it.  The caller — Store.CloseRound, at the end of the engine's step —
// guarantees the round is complete.
func (io *ioSched) closeRound() {
	r := &io.round
	if len(r.batches) == 0 && len(r.flex) == 0 {
		return
	}
	r.assignFlex()
	for i := range r.batches {
		io.service(&r.batches[i])
	}
	r.batches = r.batches[:0]
	io.stats.Rounds++
	io.m.rounds.Add(1)
}

// service prices one disk's batch, already in SCAN-EDF order.
func (io *ioSched) service(b *diskBatch) {
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
			q.slot.chunk, q.slot.cost, q.slot.full, q.slot.queued = q.chunk, cost, true, false
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

// take consumes the serviced result for the stream's chunk, reporting
// what the read is charged; the caller takes only in the open round.  A
// stale result — the stream sought or degraded past what it had
// prefetched — is discarded so the read falls back to a demand read.
func (slot *ioSlot) take(chunk int) (avtime.WorldTime, bool) {
	if !slot.full {
		return 0, false
	}
	slot.full = false
	if slot.chunk != chunk {
		return 0, false
	}
	return slot.cost, true
}

// noteDemand accounts a chunk read that bypassed the rounds, and whether
// it paid a positioning cost.
func (io *ioSched) noteDemand(seeked bool) {
	io.stats.Demand++
	io.m.demand.Add(1)
	if seeked {
		io.stats.SeeksCharged++
		io.m.seeksCharged.Add(1)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
