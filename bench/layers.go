package main

import (
	"math"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"avdb/internal/storage"
)

// activityClasses are the leaf activity classes the decorators time; a
// class a workload never installs reports zero ticks.
var activityClasses = []string{
	"VideoReader", "VideoWindow", "VideoDecoder", "VideoEncoder", "VideoWriter",
	"VideoDigitizer", "AudioReader", "AudioSink", "SubtitleReader", "SubtitleSink",
}

func isLeafClass(class string) bool {
	for _, c := range activityClasses {
		if c == class {
			return true
		}
	}
	return false
}

// counts are the per-layer counters harvested from a platform when it
// retires (the end of a pass, or — on overload_ramp — of every cycle).
// Sums add across platforms, peaks take the maximum.
type counts struct {
	io            storage.IOStats
	pool          storage.PoolStats
	rejected      int64 // Start calls shed with ErrOverloaded
	degraded      int64 // overload sweep degradations
	restored      int64 // overload sweep restores
	transitions   int64 // pressure level changes
	swaps         int64 // jukebox platter swaps
	promotions    int64
	demotions     int64
	replicas      int64
	obsSpans      int64
	diskPeakPct   float64
	diskUsedPct   float64
	linkPeakPct   float64
	admitPeakPct  float64
	platforms     int
	goroutinesEnd int
}

// harvest folds a retiring platform's counters into c.
func (c *counts) harvest(p *platform) {
	io := p.db.MediaIOStats()
	c.io.Rounds += io.Rounds
	c.io.Batches += io.Batches
	c.io.Scheduled += io.Scheduled
	c.io.Demand += io.Demand
	c.io.SeeksCharged += io.SeeksCharged
	c.io.SeeksSaved += io.SeeksSaved
	c.io.DeadlineMisses += io.DeadlineMisses
	c.io.RoundsOverrun += io.RoundsOverrun
	c.io.Failovers += io.Failovers
	if io.MaxBatch > c.io.MaxBatch {
		c.io.MaxBatch = io.MaxBatch
	}
	ps := p.db.Storage().PoolStats()
	c.pool.Hits += ps.Hits
	c.pool.Misses += ps.Misses
	c.pool.Shared += ps.Shared
	c.pool.Prefetched += ps.Prefetched
	c.pool.Evicted += ps.Evicted
	es := p.db.Engine().Stats()
	c.rejected += es.Rejected
	c.degraded += es.Degraded
	c.restored += es.Restored
	c.transitions += es.Transitions
	if p.jukebox != nil {
		c.swaps += p.jukebox.Swaps()
	}
	if p.col != nil {
		snap := p.col.Snapshot()
		c.promotions += snap.Counter("storage.tier.promotions")
		c.demotions += snap.Counter("storage.tier.demotions")
		c.replicas += snap.Counter("storage.tier.replicas")
		c.obsSpans += int64(p.col.Tracer().Len())
	}
	var used, capacity int64
	for _, d := range p.disks {
		used += d.Used()
		capacity += d.Capacity()
		if pct := sharePct(float64(p.peakDiskReserved), float64(d.TotalBandwidth())); pct > c.diskPeakPct {
			c.diskPeakPct = pct
		}
	}
	if pct := sharePct(float64(used), float64(capacity)); pct > c.diskUsedPct {
		c.diskUsedPct = pct
	}
	if pct := sharePct(float64(p.peakLinkReserved), float64(p.link.Capacity())); pct > c.linkPeakPct {
		c.linkPeakPct = pct
	}
	tot := p.db.Admission().Total()
	for _, pct := range []float64{
		sharePct(float64(p.peakAdmission.Buffers), float64(tot.Buffers)),
		sharePct(float64(p.peakAdmission.CPU), float64(tot.CPU)),
		sharePct(float64(p.peakAdmission.Bus), float64(tot.Bus)),
	} {
		if pct > c.admitPeakPct {
			c.admitPeakPct = pct
		}
	}
	c.platforms++
}

// gcSample is the garbage collector's cumulative state; two of them
// bracket an interval.
type gcSample struct {
	cycles   uint32
	gcCPU    float64         // CPU seconds spent in the collector so far
	totalCPU float64         // CPU seconds available to the process so far
	pauses   []time.Duration // per-cycle pause totals, most recent first
}

func readGC() gcSample {
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	return gcSample{
		cycles:   uint32(gs.NumGC),
		gcCPU:    cpu[0].Value.Float64(),
		totalCPU: cpu[1].Value.Float64(),
		pauses:   gs.Pause,
	}
}

// gcBetween reports what the collector did between two samples: cycles
// completed, its share of the CPU time, and the longest cycle's pause.
// The runtime keeps the last 256 pauses; an interval with more cycles
// than that reports the longest of those.
func gcBetween(a, b gcSample) (cycles int, cpuPct, maxPauseMS float64) {
	cycles = int(b.cycles - a.cycles)
	n := cycles
	if n > len(b.pauses) {
		n = len(b.pauses)
	}
	var longest time.Duration
	for _, p := range b.pauses[:n] {
		if p > longest {
			longest = p
		}
	}
	return cycles, sharePct(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), float64(longest) / 1e6
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	sp *spec

	par    *pass // parallel, untraced
	serial *pass // serial, untraced
	traced *pass // serial, traced

	book   *tickBook
	spans  []span
	counts counts    // harvested from the traced pass's platforms
	setup  *platform // the traced pass's last platform: set-up breakdown, recovered catalog
	setupS float64

	gc0, gc1 gcSample // around the parallel pass
	probes   probeResults
}

// perLayer computes every per-layer metric.  Shares are of the traced
// pass's stream-phase host time.
func perLayer(in *layerInputs) map[string]metric {
	m := make(map[string]metric)
	tt := in.traced.totals()
	st := in.serial.totals()
	pt := in.par.totals()
	stream := float64(tt.streamNS)
	run := float64(tt.runNS)
	all := aggregate(in.spans, nil)                        // every real call, set-up and recovery included
	calls := aggregate(in.spans, inStreamPhases(in.spans)) // what the shares are made of
	pr := in.probes

	// activities: per class, and the leaf classes' own time.
	var leafNS, compositeSelfNS, compositeTicks, ticks float64
	for _, class := range activityClasses {
		ts := in.book.byClass[class]
		if ts == nil {
			ts = &tickStat{}
		}
		m["activities."+class+".tick_ns"] = metric{ratio(float64(ts.ns), float64(ts.ticks)), "ns"}
		m["activities."+class+".ticks"] = metric{float64(ts.ticks), "count"}
	}
	for class, ts := range in.book.byClass {
		ticks += float64(ts.ticks)
		if isLeafClass(class) {
			leafNS += float64(ts.ns)
		} else {
			compositeSelfNS += float64(ts.selfNS())
			compositeTicks += float64(ts.ticks)
		}
	}
	topLevelNS := float64(in.book.topLevelNS)

	// Probe-attributed time inside the run phase.  A probe prices work
	// that happens inside an activity's Tick, so it can claim at most the
	// time the decorators saw that activity spend.
	classNS := func(classes ...string) float64 {
		var ns float64
		for _, c := range classes {
			if ts := in.book.byClass[c]; ts != nil {
				ns += float64(ts.ns)
			}
		}
		return ns
	}
	storageNS := math.Min(pr.readNSPerChunk*float64(tt.reads), classNS("VideoReader", "AudioReader"))
	codecNS := math.Min(pr.decodeNSPerFrame*float64(tt.decoded), classNS("VideoDecoder")) +
		math.Min(pr.encodeNSPerFrame*float64(tt.encoded), classNS("VideoEncoder"))
	execNS := pr.execNSPerStep * float64(tt.steps)
	schedNS := pr.runsetNSPerStep * float64(tt.steps)
	netNS := pr.transferNSPerChunk * float64(tt.netChunks)
	obsNS := 0.0
	if in.sp.obsOn && pr.obsOnRatio > 0 {
		obsNS = math.Max(0, run*(1-pr.obsOnRatio))
	}
	activitiesNS := leafNS - storageNS - codecNS
	activityNS := execNS + compositeSelfNS
	// On the open loop the arrival handler runs inside the engine's step;
	// what it does there is session API, query and admission work the
	// driver's spans already name, not engine bookkeeping.
	engineSelf := run - topLevelNS - execNS - schedNS - netNS - obsNS - float64(tt.handlerNS)

	// Driver-call spans by layer, self time.
	var queryNS, txnNS, sessionNS float64
	for key, cs := range calls {
		switch {
		case strings.HasPrefix(key, "core.") && key != "core.Wait":
			sessionNS += float64(cs.self)
		case strings.HasPrefix(key, "query."):
			// The open phase's SelectOne; the browse burst's Selects lie
			// outside the stream phases.
			queryNS += float64(cs.self)
		case key == "txn.SetAttr" || key == "txn.Checkin" || key == "schema.NewObject" || key == "txn.DeleteObject":
			txnNS += float64(cs.self)
		}
	}

	m["core.open_us_p99"] = metric{openPercentile(in.par, 99), "us"}
	m["core.connect_ns"] = metric{calls["core.Connect"].meanNS(), "ns"}
	m["core.install_ns"] = metric{calls["core.Install"].meanNS(), "ns"}
	m["core.bind_ns"] = metric{calls["core.Bind"].meanNS(), "ns"}
	m["core.start_ns"] = metric{calls["core.Start"].meanNS(), "ns"}
	m["core.close_ns"] = metric{calls["core.Close"].meanNS(), "ns"}
	m["core.session_pct"] = metric{sharePct(sessionNS, stream), "%"}
	m["core.engine.run_s"] = metric{run / 1e9, "s"}
	m["core.engine.self_pct"] = metric{sharePct(engineSelf, stream), "%"}
	m["core.engine.ns_per_session_step"] = metric{ratio(engineSelf, float64(tt.steps)), "ns"}
	m["core.engine.parallel_ratio"] = metric{ratio(float64(st.streamNS), float64(pt.streamNS)), "x"}
	m["core.engine.rejected"] = metric{float64(in.counts.rejected), "count"}
	m["core.engine.degrade_sweeps"] = metric{float64(in.counts.degraded), "count"}
	m["core.engine.restores"] = metric{float64(in.counts.restored), "count"}

	m["activity.exec_ns_per_tick"] = metric{pr.execNSPerStep, "ns"}
	m["activity.ticks"] = metric{ticks, "count"}
	m["activity.composite_self_ns_per_tick"] = metric{ratio(compositeSelfNS, compositeTicks), "ns"}
	m["activity.share_pct"] = metric{sharePct(activityNS, stream), "%"}
	m["activities.share_pct"] = metric{sharePct(activitiesNS, stream), "%"}

	m["codec.decode_ns_per_frame"] = metric{pr.decodeNSPerFrame, "ns"}
	m["codec.encode_ns_per_frame"] = metric{pr.encodeNSPerFrame, "ns"}
	m["codec.compression_ratio"] = metric{pr.compressionRatio, "x"}
	m["codec.share_pct"] = metric{sharePct(codecNS, stream), "%"}

	c := in.counts
	m["storage.read_ns_per_chunk"] = metric{pr.readNSPerChunk, "ns"}
	m["storage.pool_hit_pct"] = metric{sharePct(float64(c.pool.Hits), float64(c.pool.Hits+c.pool.Misses)), "%"}
	m["storage.pool_shared_pct"] = metric{sharePct(float64(c.pool.Shared), float64(c.pool.Hits+c.pool.Misses)), "%"}
	m["storage.pool_evictions"] = metric{float64(c.pool.Evicted), "count"}
	m["storage.rounds"] = metric{float64(c.io.Rounds), "count"}
	m["storage.seeks_charged"] = metric{float64(c.io.SeeksCharged), "count"}
	m["storage.seeks_saved_pct"] = metric{sharePct(float64(c.io.SeeksSaved), float64(c.io.SeeksSaved+c.io.SeeksCharged)), "%"}
	m["storage.deadline_misses"] = metric{float64(c.io.DeadlineMisses), "count"}
	m["storage.rounds_overrun"] = metric{float64(c.io.RoundsOverrun), "count"}
	m["storage.failovers"] = metric{float64(c.io.Failovers), "count"}
	m["storage.max_batch"] = metric{float64(c.io.MaxBatch), "count"}
	m["storage.tier_promotions"] = metric{float64(c.promotions), "count"}
	m["storage.tier_demotions"] = metric{float64(c.demotions), "count"}
	m["storage.replicas"] = metric{float64(c.replicas), "count"}
	placeNS := float64(in.setup.placeNS) + float64(calls["storage.Place"].nsOrZero())
	placedMB := (float64(in.setup.placedBytes) + float64(tt.placedBytes)) / (1 << 20)
	m["storage.place_ns_per_mb"] = metric{ratio(placeNS, placedMB), "ns"}
	m["storage.share_pct"] = metric{sharePct(storageNS+float64(calls["storage.Place"].nsOrZero()), stream), "%"}

	m["device.disk_reserved_peak_pct"] = metric{c.diskPeakPct, "%"}
	m["device.jukebox_swaps"] = metric{float64(c.swaps), "count"}
	m["device.disk_used_pct"] = metric{c.diskUsedPct, "%"}

	m["netsim.transfer_ns_per_chunk"] = metric{pr.transferNSPerChunk, "ns"}
	m["netsim.link_reserved_peak_pct"] = metric{c.linkPeakPct, "%"}
	m["netsim.bytes_carried"] = metric{float64(tt.bytes), "bytes"}
	m["netsim.share_pct"] = metric{sharePct(netNS, stream), "%"}

	m["sched.runset_ns_per_step"] = metric{pr.runsetNSPerStep, "ns"}
	m["sched.admission_peak_pct"] = metric{c.admitPeakPct, "%"}
	m["sched.admission_refused"] = metric{float64(tt.refusedAdmission), "count"}
	m["sched.overload_transitions"] = metric{float64(c.transitions), "count"}
	m["sched.stall_episodes"] = metric{float64(tt.stalls), "count"}
	m["sched.share_pct"] = metric{sharePct(schedNS, stream), "%"}

	var point, rng, scan []float64
	var results, nbrowse float64
	for _, w := range in.par.waves {
		for _, b := range w.browses {
			rng = append(rng, float64(b.partNS[0])/1e3)
			scan = append(scan, float64(b.partNS[1])/1e3)
			point = append(point, float64(b.partNS[2])/1e3)
			results += float64(b.results)
			nbrowse++
		}
	}
	sort.Float64s(point)
	sort.Float64s(rng)
	sort.Float64s(scan)
	m["query.point_us_p50"] = metric{percentile(point, 50), "us"}
	m["query.range_us_p50"] = metric{percentile(rng, 50), "us"}
	m["query.scan_us_p50"] = metric{percentile(scan, 50), "us"}
	m["query.parse_ns"] = metric{pr.parseNS, "ns"}
	m["query.results_per_browse"] = metric{ratio(results, nbrowse), "count"}
	m["query.share_pct"] = metric{sharePct(queryNS, stream), "%"}

	m["txn.setattr_us_p50"] = metric{spanPercentile(in.spans, "txn", "SetAttr", 50) / 1e3, "us"}
	m["txn.checkin_us_p50"] = metric{spanPercentile(in.spans, "txn", "Checkin", 50) / 1e3, "us"}
	// The database's log is not visible from outside core, so recovery is
	// priced per logged write the driver made on the recovered platform
	// (NewObject, scalar SetAttr, DeleteObject), not per log record.
	writes := float64(in.setup.model.writes)
	m["txn.logged_writes"] = metric{writes, "count"}
	m["txn.recover_ns_per_logged_write"] = metric{ratio(all["core.Recover"].meanNS(), writes), "ns"}
	m["txn.share_pct"] = metric{sharePct(txnNS, stream), "%"}
	m["schema.newobject_ns"] = metric{all["schema.NewObject"].meanNS(), "ns"}

	m["obs.sink_on_ratio"] = metric{pr.obsOnRatio, "x"}
	m["obs.spans"] = metric{float64(c.obsSpans + pr.obsSpans), "count"}
	m["obs.snapshot_ms"] = metric{pr.obsSnapshotMS, "ms"}
	m["obs.share_pct"] = metric{sharePct(obsNS, stream), "%"}

	su := in.setup
	m["synth.video_ns_per_frame"] = metric{ratio(float64(su.synthNS), float64(su.synthFrames)), "ns"}
	m["synth.speech_ns_per_s"] = metric{ratio(float64(su.speechNS), su.speechSeconds), "ns"}
	m["synth.share_of_setup_pct"] = metric{sharePct(float64(su.synthNS+su.speechNS)/1e9, in.setupS), "%"}

	gcCycles, gcCPUPct, gcPauseMS := gcBetween(in.gc0, in.gc1)
	m["runtime.gc_cpu_pct"] = metric{gcCPUPct, "%"}
	m["runtime.gc_cycles"] = metric{float64(gcCycles), "count"}
	m["runtime.pause_ms_max"] = metric{gcPauseMS, "ms"}
	m["runtime.goroutines_after_close"] = metric{float64(in.counts.goroutinesEnd), "count"}

	m["trace.overhead_pct"] = metric{sharePct(float64(tt.streamNS-st.streamNS), float64(st.streamNS)), "%"}
	m["trace.coverage_pct"] = metric{sharePct(float64(coveredNS64(in.spans)), stream), "%"}
	m["trace.spans"] = metric{float64(len(in.spans)), "count"}
	return m
}

func (c *callStat) nsOrZero() int64 {
	if c == nil {
		return 0
	}
	return c.ns
}

// openPercentile is the p-th percentile of per-session open time, µs.
func openPercentile(ps *pass, p float64) float64 {
	var opens []float64
	for _, w := range ps.waves {
		opens = append(opens, w.opens...)
	}
	sort.Float64s(opens)
	return percentile(opens, p)
}

// spanPercentile is the p-th percentile duration (ns) of the spans named
// layer.name.
func spanPercentile(spans []span, layer, name string, p float64) float64 {
	var ds []float64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			ds = append(ds, float64(s.End-s.Start))
		}
	}
	sort.Float64s(ds)
	return percentile(ds, p)
}
