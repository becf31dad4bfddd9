package main

import (
	"fmt"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/codec"
	"avdb/internal/netsim"
	"avdb/internal/query"
	"avdb/internal/sched"
	"avdb/internal/storage"
)

// The traced pass times what the driver can see: its own calls into core
// and every activity Tick.  Host time the engine spends between those —
// reading chunks, decoding, moving chunks over the link, keeping the run
// set — is apportioned by layer probes: each calls one layer's public
// functions with the counts the pass just produced and reports a cost
// per unit of work, which perLayer multiplies back by the counts.

// probeResults are the unit costs the probes measured.
type probeResults struct {
	readNSPerChunk     float64
	decodeNSPerFrame   float64
	encodeNSPerFrame   float64
	compressionRatio   float64
	execNSPerStep      float64
	runsetNSPerStep    float64
	transferNSPerChunk float64
	parseNS            float64

	obsOnRatio    float64
	obsSpans      int64
	obsSnapshotMS float64
}

// probeMaxStreams and probeMaxRounds bound the storage replay so the
// probe stays a small fraction of the pass it explains.
const (
	probeMaxStreams = 1000
	probeMaxRounds  = 150
)

// probeStorage replays one wave's chunk reads against the platform's own
// store: the same streams on the same segments under the same policy,
// every stream reading chunk r in round r, exactly the access pattern
// the engine generates.
func probeStorage(e *env, wl workload, p *platform) (float64, error) {
	plans := wl.plan(e, p, 0)
	if len(plans) > probeMaxStreams {
		plans = plans[:probeMaxStreams]
	}
	st := p.db.Storage()
	type replay struct {
		s      *storage.Stream
		chunks int
		size   []int64
	}
	var streams []replay
	defer func() {
		for _, r := range streams {
			r.s.Close()
		}
	}()
	rounds := 0
	for i := range plans {
		if plans[i].kind != planPlay {
			continue
		}
		c := p.clips[plans[i].clip]
		seg, ok := p.db.Placement(c.en.oid, c.attr, c.track)
		if !ok {
			continue
		}
		s, _, err := st.OpenStreamWith(seg.ID(), p.bindRate, st.Striping())
		if err != nil {
			if isRefusal(err) {
				break // the platform is full: replay what fits
			}
			return 0, fmt.Errorf("bench: storage probe: %w", err)
		}
		n := c.value.NumElements()
		if n > probeMaxRounds {
			n = probeMaxRounds
		}
		sizes := make([]int64, n)
		for k := range sizes {
			el, err := c.value.ElementAt(avtime.ObjectTime(k))
			if err != nil {
				return 0, err
			}
			sizes[k] = el.Size()
		}
		streams = append(streams, replay{s, n, sizes})
		if n > rounds {
			rounds = n
		}
	}
	if len(streams) == 0 {
		return 0, nil
	}
	// Rounds must stay above the scheduler's flush watermark, which the
	// engine's step counter set — except where the workload's readers sit
	// inside a composite: a composite hands its children a fresh tick
	// context whose round is the graph's own tick number, so those reads
	// really are tagged 0, 1, 2, … and the probe tags them the same way.
	base := p.db.Engine().Stats().Steps + 1<<20
	if p.seqRounds {
		base = 0
	}
	period := avtime.RateVideo30.UnitDuration()
	var reads int64
	start := e.sw.now()
	for r := 0; r < rounds; r++ {
		now := avtime.WorldTime(r) * period
		for _, rp := range streams {
			if r >= rp.chunks {
				continue
			}
			if _, err := rp.s.ReadChunkTimeAt(r, rp.size[r], base+int64(r), now, now); err != nil {
				return 0, fmt.Errorf("bench: storage probe read: %w", err)
			}
			reads++
		}
	}
	return ratio(float64(e.sw.now()-start), float64(reads)), nil
}

// probeCodecMinNS is how long each codec probe keeps going, so one
// short clip's cold first pass does not decide the unit cost.
const probeCodecMinNS = 100_000_000

// probeCodec decodes the platform's sample encoded value and encodes its
// sample raw frames with the stream codecs the activities use, whole
// streams at a time until probeCodecMinNS has passed.
func probeCodec(e *env, p *platform) (decodeNS, encodeNS float64, err error) {
	quant, gop := mpegParams()
	if v := p.probeDecode; v != nil {
		frames := make([]*codec.EncodedFrame, v.NumElements())
		for i := range frames {
			el, err := v.ElementAt(avtime.ObjectTime(i))
			if err != nil {
				return 0, 0, err
			}
			frames[i] = el.(*codec.EncodedFrame)
		}
		var n int64
		start := e.sw.now()
		for e.sw.now()-start < probeCodecMinNS {
			dec, err := codec.NewVideoStreamDecoder(p.probeW, p.probeH, 8, quant)
			if err != nil {
				return 0, 0, err
			}
			for _, f := range frames {
				if _, err := dec.DecodeFrame(f); err != nil {
					return 0, 0, fmt.Errorf("bench: codec probe decode: %w", err)
				}
			}
			n += int64(len(frames))
		}
		decodeNS = ratio(float64(e.sw.now()-start), float64(n))
	}
	if frames := p.probeEncode; len(frames) > 0 {
		var n int64
		start := e.sw.now()
		for e.sw.now()-start < probeCodecMinNS {
			enc, err := codec.NewInterStreamEncoder(quant, gop)
			if err != nil {
				return 0, 0, err
			}
			for _, f := range frames {
				if _, err := enc.EncodeFrame(f); err != nil {
					return 0, 0, fmt.Errorf("bench: codec probe encode: %w", err)
				}
			}
			n += int64(len(frames))
		}
		encodeNS = ratio(float64(e.sw.now()-start), float64(n))
	}
	return decodeNS, encodeNS, nil
}

// probeRunSet steps a ShardedRunSet holding one wave's sessions the way
// the engine does: pop the due batch, reschedule every run one period
// on.  The cost is per session-step.
func probeRunSet(e *env, sessions int) float64 {
	const shards, steps = 16, 200
	set := sched.NewShardedRunSet(shards)
	ids := make([]sched.RunID, sessions)
	for i := range ids {
		ids[i] = set.Admit(0, i%shards)
	}
	period := avtime.RateVideo30.UnitDuration()
	var stepped int64
	start := e.sw.now()
	for s := 0; s < steps; s++ {
		due, batch, ok := set.DueBatch()
		if !ok {
			break
		}
		// The batch buffer is the set's own, valid until the next call;
		// copy it out as the engine does before rescheduling.
		ids = append(ids[:0], batch...)
		for _, id := range ids {
			set.Reschedule(id, due+period)
		}
		stepped += int64(len(ids))
	}
	ns := e.sw.now() - start
	for _, id := range ids {
		set.Remove(id)
	}
	return ratio(float64(ns), float64(stepped))
}

// probeExecutor runs one client's wiring under a bare Graph.Run — no
// session, no engine, no storage stream, no link — with the values bound
// directly.  Run time minus the time inside the graph-level Ticks is the
// wavefront executor's own cost per graph tick.
func probeExecutor(e *env, wl workload, p *platform) (float64, error) {
	plans := wl.plan(e, p, 0)
	pe := *e
	pe.rec = nil
	pe.kit = kit{book: newTickBook(e.sw)}
	var runNS, ticks int64
	for i := 0; i < len(plans) && i < 8; i++ {
		l := &live{plan: &plans[i], span: noSpan}
		w, err := wl.wire(&pe, p, l)
		if err != nil {
			return 0, err
		}
		g := activity.NewGraph(fmt.Sprintf("probe-%d", i))
		for _, n := range w.nodes {
			if err := g.Add(n); err != nil {
				return 0, err
			}
		}
		for _, ed := range w.edges {
			if _, err := g.Connect(ed.from, ed.fromPort, ed.to, ed.toPort); err != nil {
				return 0, err
			}
		}
		if w.direct != nil {
			if err := w.direct(); err != nil {
				return 0, err
			}
		}
		if err := g.Start(); err != nil {
			return 0, err
		}
		// Graph.Run's loop, with only the Tick/Commit part on the clock:
		// Begin and Finish are per-run costs, not per-tick ones.
		run, err := g.Begin(activity.RunConfig{Clock: sched.NewVirtualClock(0), Workers: 1})
		if err != nil {
			return 0, fmt.Errorf("bench: executor probe: %w", err)
		}
		start := e.sw.now()
		for {
			done, err := run.Tick()
			if err != nil {
				break
			}
			run.Commit()
			if done {
				break
			}
		}
		runNS += e.sw.now() - start
		stats, err := run.Finish()
		if err != nil {
			return 0, fmt.Errorf("bench: executor probe: %w", err)
		}
		ticks += int64(stats.Ticks)
	}
	return ratio(float64(runNS-pe.kit.book.topLevelNS), float64(ticks)), nil
}

// probeNet prices TransferChunk on a link shaped like the platform's.
func probeNet(e *env, p *platform, chunkBytes int64) (float64, error) {
	const n = 100_000
	link := netsim.NewLink("probe", p.link.Capacity(), p.link.Latency(), p.link.MaxJitter(), e.subSeed("probe-link", 0))
	conn, err := link.Connect(p.linkRate)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	start := e.sw.now()
	for i := 0; i < n; i++ {
		if _, err := conn.TransferChunk(chunkBytes); err != nil {
			return 0, err
		}
	}
	return float64(e.sw.now()-start) / n, nil
}

// probeParse prices query.Parse alone on the browse action's queries.
func probeParse(e *env, p *platform) (float64, error) {
	const reps = 200
	b := p.model.newBrowse(e.rngFor("probe-parse", 0))
	start := e.sw.now()
	for i := 0; i < reps; i++ {
		for _, q := range b.queries {
			if _, err := query.Parse(q); err != nil {
				return 0, err
			}
		}
	}
	return float64(e.sw.now()-start) / float64(reps*len(b.queries)), nil
}

// probeObs runs one reduced wave with the obs collector installed and
// one without, serially and untraced, and reports frames/s on ÷ off, the
// collector's span count and the cost of a JSON snapshot.
func probeObs(e *env, sp *spec) (onRatio float64, spans int64, snapshotMS float64, err error) {
	small := *sp
	if small.sessions > 96 {
		small.sessions = 96
	}
	if small.clipFrames > 150 {
		small.clipFrames = 150
	}
	if small.recordFrames > 150 {
		small.recordFrames = 150
	}
	if small.catalogExtra > 500 {
		small.catalogExtra = 500
	}
	small.browsePerWave = 1
	var rate [2]float64
	for i, on := range []bool{false, true} {
		on := on
		pe := &env{sw: e.sw, seed: e.seed, workers: 1, smoke: e.smoke, obs: &on}
		wl := newWorkload(&small)
		p, err := wl.build(pe)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bench: obs probe set-up: %w", err)
		}
		ps, p := runPass(pe, wl, p, 1, 0)
		t := ps.totals()
		if t.failed > 0 {
			return 0, 0, 0, fmt.Errorf("bench: obs probe wave failed: %v", t.errs)
		}
		rate[i] = ratio(float64(t.frames), float64(t.streamNS))
		if on && p.col != nil {
			spans = int64(p.col.Tracer().Len())
			s := e.sw.now()
			if _, err := p.col.Snapshot().JSON(); err != nil {
				return 0, 0, 0, err
			}
			snapshotMS = float64(e.sw.now()-s) / 1e6
		}
	}
	return ratio(rate[1], rate[0]), spans, snapshotMS, nil
}

// runProbes measures every unit cost for one workload on the platform
// the traced pass just used.
func runProbes(e *env, wl workload, p *platform) (probeResults, error) {
	var pr probeResults
	var err error
	sp := wl.spec()
	ue := *e // the probes themselves are untraced
	ue.rec, ue.kit = nil, kit{}
	if pr.readNSPerChunk, err = probeStorage(&ue, wl, p); err != nil {
		return pr, err
	}
	if pr.decodeNSPerFrame, pr.encodeNSPerFrame, err = probeCodec(&ue, p); err != nil {
		return pr, err
	}
	pr.compressionRatio = p.compressionRatio()
	if pr.execNSPerStep, err = probeExecutor(&ue, wl, p); err != nil {
		return pr, err
	}
	pr.runsetNSPerStep = probeRunSet(&ue, sp.sessions)
	if pr.transferNSPerChunk, err = probeNet(&ue, p, p.netChunkBytes); err != nil {
		return pr, err
	}
	if pr.parseNS, err = probeParse(&ue, p); err != nil {
		return pr, err
	}
	if pr.obsOnRatio, pr.obsSpans, pr.obsSnapshotMS, err = probeObs(&ue, sp); err != nil {
		return pr, err
	}
	return pr, nil
}
