package storage

// sched_reference_test.go keeps a map+sort round scheduler as the
// differential oracle for the flat, allocation-free ioSched in
// sched.go.  The two must produce byte-identical service orders, seek
// charges, results and storage.iosched.* metrics for any request
// stream; sched_differential_test.go and FuzzSCANEDFOrder hold them to
// it.  When touching sched.go, re-run the harness (and the fuzzer:
// go test -fuzz=FuzzSCANEDFOrder ./internal/storage) against this file.
// Keep the reference naive: its value is computing every round from
// scratch, with maps and a sort, instead of the scheduler's
// insertion-ordered buffers.
//
// The reference keeps a per-sid results map; the harness drives both
// schedulers through the same take/put-back read protocol (see opRead).

import (
	"sort"

	"avdb/internal/avtime"
	"avdb/internal/obs"
)

// refSched is the nested-map scheduler with one open round: requests
// pile into disk -> stream maps (replicated ones into a stream map of
// their own) and every close sorts the flex requests, routes each to
// its least-loaded copy, and rebuilds and sorts each disk's batch from
// scratch.
type refSched struct {
	sink     obs.Sink
	open     int64                      // the round pending collects
	pending  map[string]map[int64]ioReq // disk -> stream -> request
	flex     map[int64]ioReq            // stream -> replicated request
	results  map[int64]refResult        // stream -> last serviced request
	heads    map[string]int             // disk -> head track after last round
	stats    IOStats
	svcTrace *[]svcEvent
}

// refResult is a serviced request waiting for its stream to consume it.
type refResult struct {
	chunk int
	cost  avtime.WorldTime
}

func newRefSched(sink obs.Sink, open int64) *refSched {
	return &refSched{
		sink:    sink,
		open:    open,
		pending: make(map[string]map[int64]ioReq),
		flex:    make(map[int64]ioReq),
		results: make(map[int64]refResult),
		heads:   make(map[string]int),
	}
}

// Stats returns a snapshot of the counters.
func (io *refSched) Stats() IOStats { return io.stats }

// submit queues a request into the open round and drops any other
// round's; resubmission by one stream replaces its previous request of
// the same kind (direct on that disk, or replicated).
func (io *refSched) submit(round int64, q ioReq) {
	if round != io.open {
		return
	}
	if q.nalt > 0 {
		io.flex[q.sid] = q
		return
	}
	io.put(q)
}

// put files q under its disk, replacing the stream's request there.
func (io *refSched) put(q ioReq) {
	bySid := io.pending[q.disk.ID()]
	if bySid == nil {
		bySid = make(map[int64]ioReq)
		io.pending[q.disk.ID()] = bySid
	}
	bySid[q.sid] = q
}

// load sums the bytes queued on a disk.
func (io *refSched) load(devID string) int64 {
	var n int64
	for _, q := range io.pending[devID] {
		n += q.bytes
	}
	return n
}

// refBefore is the SCAN-EDF key, spelled out again rather than shared
// with the scheduler's reqBefore.
func refBefore(a, b ioReq) bool {
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

// closeRound services the open round — the replicated requests routed
// in SCAN-EDF order, each to the copy with the fewest queued bytes
// (ties to the lower device ID), then the disks in ID order — and opens
// round+1.
func (io *refSched) closeRound(round int64) {
	io.open = round + 1
	if len(io.pending) == 0 && len(io.flex) == 0 {
		return
	}
	flex := make([]ioReq, 0, len(io.flex))
	for _, q := range io.flex {
		flex = append(flex, q)
	}
	sort.Slice(flex, func(i, j int) bool { return refBefore(flex[i], flex[j]) })
	for _, q := range flex {
		best, bestTrack := q.disk, q.track
		bestLoad := io.load(best.ID())
		for _, alt := range q.alts[:q.nalt] {
			if l := io.load(alt.disk.ID()); l < bestLoad || (l == bestLoad && alt.disk.ID() < best.ID()) {
				best, bestTrack, bestLoad = alt.disk, alt.track, l
			}
		}
		q.disk, q.track, q.nalt = best, bestTrack, 0
		io.put(q)
	}
	devs := make([]string, 0, len(io.pending))
	for id := range io.pending {
		devs = append(devs, id)
	}
	sort.Strings(devs)
	for _, id := range devs {
		io.service(id, io.pending[id])
	}
	io.pending = make(map[string]map[int64]ioReq)
	io.flex = make(map[int64]ioReq)
	io.stats.Rounds++
	if io.sink != nil {
		io.sink.Counter("storage.iosched.rounds").Add(1)
	}
}

// service prices one disk's batch SCAN-EDF, rebuilding and sorting it
// from the stream map the way the old scheduler did every round.
func (io *refSched) service(devID string, bySid map[int64]ioReq) {
	batch := make([]ioReq, 0, len(bySid))
	for _, q := range bySid {
		batch = append(batch, q)
	}
	sort.Slice(batch, func(i, j int) bool { return refBefore(batch[i], batch[j]) })
	pos := io.heads[devID]
	start := batch[0].now
	for _, q := range batch {
		if q.now < start {
			start = q.now
		}
	}
	var busy avtime.WorldTime
	var misses, charged, saved int64
	last := batch[len(batch)-1].deadline
	for i, q := range batch {
		var seek avtime.WorldTime
		if i == 0 || abs(q.track-pos) > 1 {
			seek = q.disk.SeekBetween(pos, q.track)
		}
		if seek > 0 {
			charged++
		} else {
			saved++
		}
		busy += seek + avtime.WorldTime(q.bytes*int64(avtime.Second)/int64(q.disk.TotalBandwidth()))
		if start+busy > q.deadline {
			misses++
		}
		cost := seek
		if q.rate > 0 {
			cost += avtime.WorldTime(q.bytes * int64(avtime.Second) / int64(q.rate))
		}
		io.results[q.sid] = refResult{chunk: q.chunk, cost: cost}
		if io.svcTrace != nil {
			*io.svcTrace = append(*io.svcTrace, svcEvent{
				dev: devID, sid: q.sid, chunk: q.chunk, track: q.track, seek: seek, cost: cost,
			})
		}
		pos = q.track
	}
	io.heads[devID] = pos
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
	if io.sink != nil {
		io.sink.Histogram("storage.iosched.batch_size").Observe(int64(len(batch)))
		io.sink.Counter("storage.iosched.scheduled").Add(int64(len(batch)))
		if charged > 0 {
			io.sink.Counter("storage.iosched.seeks_charged").Add(charged)
		}
		if saved > 0 {
			io.sink.Counter("storage.iosched.seeks_saved").Add(saved)
		}
		if misses > 0 {
			io.sink.Counter("storage.iosched.deadline_misses").Add(misses)
		}
		if overrun {
			io.sink.Counter("storage.iosched.overrun").Add(1)
		}
	}
}

// take consumes the result for the stream's chunk in the open round,
// reporting its cost, and discards it on a chunk mismatch; a read in
// any other round leaves it alone.
func (io *refSched) take(sid int64, chunk int, round int64) (avtime.WorldTime, bool) {
	res, ok := io.results[sid]
	if round != io.open || !ok {
		return 0, false
	}
	delete(io.results, sid)
	if res.chunk != chunk {
		return 0, false
	}
	return res.cost, true
}

// drop discards any result held for the stream.
func (io *refSched) drop(sid int64) { delete(io.results, sid) }

// noteDemand accounts a read that bypassed the rounds.
func (io *refSched) noteDemand(seeked bool) {
	io.stats.Demand++
	if seeked {
		io.stats.SeeksCharged++
	}
	if io.sink != nil {
		io.sink.Counter("storage.iosched.demand").Add(1)
		if seeked {
			io.sink.Counter("storage.iosched.seeks_charged").Add(1)
		}
	}
}
