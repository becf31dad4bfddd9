package main

import (
	"fmt"
	"runtime"
	"sort"

	"avdb/internal/activity"
)

type runStats = activity.RunStats

// obsOn reports whether this pass installs the obs collector.
func (e *env) obsOn(sp *spec) bool {
	if e.obs != nil {
		return *e.obs
	}
	return sp.obsOn
}

// Set-up is repeated at least setupMinReps times and until setupMinNS
// has passed (at most setupMaxReps times); setup_s is the median, so one
// slow build does not decide it.
const (
	setupMinReps = 3
	setupMaxReps = 9
	setupMinNS   = 1_500_000_000
)

// pass is one sequence of waves.
type pass struct {
	waves    []*waveResult
	late     *lateHist
	counts   counts // harvested from every platform the pass retired
	regionNS int64  // host time from the first wave's start to the last wave's end
	spanID   int32
}

// rebuilder is implemented by a workload whose waves each need a fresh
// platform (overload_ramp: the obs collector keeps every span it was
// ever given, so a long-lived platform's heap would grow with the run).
// rebuild reuses the fixtures the retiring platform synthesized.
type rebuilder interface {
	rebuild(e *env, old *platform) (*platform, error)
}

// runPass executes waves [0, n) starting on p — fewer if budgetNS (when
// positive) runs out first — and returns the pass and the platform the
// last wave ran on.  The platform's counters are
// harvested into the pass after the last wave; the caller still owns the
// platform (recovery, probes).
func runPass(e *env, wl workload, p *platform, n int, budgetNS int64) (*pass, *platform) {
	ps := &pass{late: newLateHist(wl.spec().lateCapUS)}
	ps.spanID = e.rec.begin(noSpan, "bench", "pass")
	rb, fresh := wl.(rebuilder)
	start := e.sw.now()
	for w := 0; w < n; w++ {
		if budgetNS > 0 && w >= wl.spec().minWaves && e.sw.now()-start > budgetNS {
			// A host far slower than the reference one: stop at a wave
			// boundary rather than overrun the caller's time limit.  The
			// run record shows the shortfall in its wave count.
			break
		}
		if fresh && w > 0 {
			ps.counts.harvest(p)
			e.setupSpan = e.rec.begin(ps.spanID, "bench", "setup")
			next, err := rb.rebuild(e, p)
			e.rec.end(e.setupSpan)
			if err != nil {
				res := &waveResult{index: w}
				res.fail(fmt.Errorf("bench: rebuilding the platform for wave %d: %w", w, err))
				ps.waves = append(ps.waves, res)
				break
			}
			p = next
		}
		ps.waves = append(ps.waves, runWave(e, wl, p, w, ps.spanID, ps.late))
	}
	ps.regionNS = e.sw.now() - start
	ps.counts.harvest(p)
	ps.counts.goroutinesEnd = runtime.NumGoroutine()
	e.rec.end(ps.spanID)
	return ps, p
}

// totals sums the waves of a pass.
type totals struct {
	attempted, served, failed         int
	frames, due, onTime, steps, bytes int64
	streamNS                          int64
	runNS                             int64
	mallocs                           uint64
	peakHeap                          uint64
	errs                              []error

	reads, decoded, encoded, netChunks int64
	placedBytes, stalls, handlerNS     int64
	refusedAdmission                   int
}

func (ps *pass) totals() totals {
	var t totals
	for _, w := range ps.waves {
		t.attempted += w.attempted
		t.served += w.served
		t.failed += w.failed
		t.frames += w.frames
		t.due += w.due
		t.onTime += w.onTime
		t.steps += w.steps
		t.bytes += w.bytes
		t.streamNS += w.streamNS()
		t.runNS += w.runNS
		t.mallocs += w.mallocs
		t.reads += w.reads
		t.decoded += w.decoded
		t.encoded += w.encoded
		t.netChunks += w.netChunks
		t.placedBytes += w.placedBytes
		t.stalls += w.stalls
		t.handlerNS += w.handlerNS
		t.refusedAdmission += w.refusedAdmission
		if w.heapLive > t.peakHeap {
			t.peakHeap = w.heapLive
		}
		t.errs = append(t.errs, w.errs...)
	}
	return t
}

// fingerprints lists the per-wave fingerprints in wave order.
func (ps *pass) fingerprints() []uint64 {
	out := make([]uint64, len(ps.waves))
	for i, w := range ps.waves {
		out[i] = w.fingerprint
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recovery is the crash/recover measurement taken after the last wave.
type recovery struct {
	ms      []float64 // one per repetition
	ok      bool
	err     error
	browses int
}

// Crash/recover cycles are timed at least recoverMinReps times and until
// recoverMinNS has passed (at most recoverMaxReps times); recover_ms is
// their median.  A 24-object catalog recovers in a millisecond, and a
// handful of samples of that would be noise.
const (
	recoverMinReps = 5
	recoverMaxReps = 400
	recoverMinNS   = 400_000_000
)

// measureRecovery crashes the database, recovers it and rebuilds every
// index, repeatedly, and checks that a set of browse actions drawn
// before the first crash returns the same objects after each.
func measureRecovery(e *env, p *platform, runSpan int32) recovery {
	rec := recovery{ok: true}
	rng := e.rngFor("recovery", 0)
	actions := make([]*browseAction, 16)
	for i := range actions {
		actions[i] = p.model.newBrowse(rng)
		br := actions[i].run(p.db, e.sw, nil, noSpan)
		if br.err != nil || !br.ok {
			rec.ok, rec.err = false, fmt.Errorf("bench: pre-crash browse failed: %v", br.err)
			return rec
		}
	}
	var spent int64
	for rep := 0; rep < recoverMaxReps && (rep < recoverMinReps || spent < recoverMinNS); rep++ {
		phase := e.rec.begin(runSpan, "bench", "recover")
		start := e.sw.now()
		id := e.rec.begin(phase, "core", "Crash")
		p.db.Crash()
		e.rec.end(id)
		id = e.rec.begin(phase, "core", "Recover")
		err := p.db.Recover()
		e.rec.end(id)
		if err == nil {
			id = e.rec.begin(phase, "core", "CreateIndex")
			err = createCatalogIndexes(p.db)
			e.rec.end(id)
		}
		took := e.sw.now() - start
		spent += took
		rec.ms = append(rec.ms, float64(took)/1e6)
		e.rec.end(phase)
		if err != nil {
			rec.ok, rec.err = false, fmt.Errorf("bench: recovery: %w", err)
			return rec
		}
		for _, a := range actions {
			br := a.run(p.db, e.sw, nil, noSpan)
			rec.browses++
			if br.err != nil || !br.ok {
				rec.ok, rec.err = false, fmt.Errorf("bench: a browse action answered differently after recovery (%v)", br.err)
				return rec
			}
		}
	}
	return rec
}

// endToEnd computes the eleven end-to-end metrics from the untraced
// measured region.
func endToEnd(sp *spec, setupS []float64, ps *pass, rcv recovery) map[string]metric {
	t := ps.totals()
	var rates, opens, browses []float64
	for _, w := range ps.waves {
		rates = append(rates, ratio(float64(w.frames), float64(w.streamNS())/1e9))
		opens = append(opens, w.opens...)
		for _, b := range w.browses {
			browses = append(browses, float64(b.ns)/1e3)
		}
	}
	sort.Float64s(opens)
	sort.Float64s(browses)
	return map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"frames_per_s":     {median(rates), "1/s"},
		"open_us_p50":      {percentile(opens, 50), "us"},
		"browse_us_p50":    {percentile(browses, 50), "us"},
		"recover_ms":       {median(rcv.ms), "ms"},
		"late_ms_p50":      {float64(ps.late.percentileUS(50)) / 1e3, "ms_virtual"},
		"late_ms_p99":      {float64(ps.late.percentileUS(99)) / 1e3, "ms_virtual"},
		"on_time_pct":      {sharePct(float64(t.onTime), float64(t.due)), "%"},
		"served_pct":       {sharePct(float64(t.served), float64(t.attempted)), "%"},
		"allocs_per_frame": {ratio(float64(t.mallocs), float64(t.frames)), "allocs/frame"},
		"peak_heap_mb":     {float64(t.peakHeap) / (1 << 20), "MB"},
	}
}

// buildTimed runs wl.build on the stopwatch.
func buildTimed(e *env, wl workload) (*platform, float64, error) {
	e.setupSpan = e.rec.begin(noSpan, "bench", "setup")
	defer e.rec.end(e.setupSpan)
	start := e.sw.now()
	p, err := wl.build(e)
	return p, float64(e.sw.now()-start) / 1e9, err
}

// maxProcs is the parallelism every untraced region runs with.
func maxProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}
