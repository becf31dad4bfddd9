package storage

// sched_reference_test.go retains the PR 4-6 map+sort round scheduler
// verbatim as the differential oracle for the flat, allocation-free
// IOSched in sched.go.  The two must produce byte-identical service
// orders, seek charges, results and storage.iosched.* metrics for any
// request stream; sched_differential_test.go and FuzzSCANEDFOrder hold
// them to it.  When touching sched.go, re-run the harness (and the
// fuzzer: go test -fuzz=FuzzSCANEDFOrder ./internal/storage) against
// this file — do not "modernize" the reference, its value is being the
// old code.
//
// The reference keeps the old per-sid results map; the harness drives
// both schedulers through the same take/put-back read protocol (see
// opRead).

import (
	"sort"

	"avdb/internal/avtime"
	"avdb/internal/obs"
)

// refSched is the original nested-map scheduler: requests pile into
// round -> disk -> stream maps and every flush rebuilds and sorts each
// batch from scratch.
type refSched struct {
	sink     obs.Sink
	pending  map[int64]map[string]map[int64]ioReq // round -> disk -> stream -> request
	results  map[int64]refResult                  // stream -> last serviced request
	heads    map[string]int                       // disk -> head track after last round
	flushed  int64                                // rounds below this are serviced
	stats    IOStats
	svcTrace *[]svcEvent
}

// refResult is a serviced request waiting for its stream to consume it.
type refResult struct {
	chunk int
	cost  avtime.WorldTime
}

func newRefSched(sink obs.Sink) *refSched {
	return &refSched{
		sink:    sink,
		pending: make(map[int64]map[string]map[int64]ioReq),
		results: make(map[int64]refResult),
		heads:   make(map[string]int),
	}
}

// Stats returns a snapshot of the counters.
func (io *refSched) Stats() IOStats { return io.stats }

// submit queues a request into the given round; same-round resubmission
// by one stream replaces the previous request.
func (io *refSched) submit(round int64, q ioReq) {
	if round < io.flushed {
		return
	}
	byDev := io.pending[round]
	if byDev == nil {
		byDev = make(map[string]map[int64]ioReq)
		io.pending[round] = byDev
	}
	bySid := byDev[q.disk.ID()]
	if bySid == nil {
		bySid = make(map[int64]ioReq)
		byDev[q.disk.ID()] = bySid
	}
	bySid[q.sid] = q
}

// flushBefore services every pending round strictly below round, in
// ascending order, disks in ID order.
func (io *refSched) flushBefore(round int64) {
	if round <= io.flushed {
		return
	}
	var due []int64
	for r := range io.pending {
		if r < round {
			due = append(due, r)
		}
	}
	io.flushed = round
	if len(due) == 0 {
		return
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, r := range due {
		byDev := io.pending[r]
		delete(io.pending, r)
		devs := make([]string, 0, len(byDev))
		for id := range byDev {
			devs = append(devs, id)
		}
		sort.Strings(devs)
		for _, id := range devs {
			io.service(id, byDev[id])
		}
		io.stats.Rounds++
		if io.sink != nil {
			io.sink.Counter("storage.iosched.rounds").Add(1)
		}
	}
}

// service prices one disk's batch SCAN-EDF, rebuilding and sorting it
// from the stream map the way the old scheduler did every round.
func (io *refSched) service(devID string, bySid map[int64]ioReq) {
	batch := make([]ioReq, 0, len(bySid))
	for _, q := range bySid {
		batch = append(batch, q)
	}
	sort.Slice(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
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
	})
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

// take consumes the result for the stream's chunk, reporting its cost,
// and discards it on a chunk mismatch.
func (io *refSched) take(sid int64, chunk int) (avtime.WorldTime, bool) {
	res, ok := io.results[sid]
	if !ok {
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
