package main

import (
	"fmt"
	"math"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/core"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/storage"
	"avdb/internal/synth"
)

// overload_ramp: the open loop.  A wave is one cycle of virtual time on
// a deliberately small platform — four finite disks, a jukebox holding
// the cold half of the library, tiering, replication, overload control
// and the obs collector all on.  Clients arrive on a seeded schedule
// whose rate ramps from half the platform's admission capacity to twice
// it and back, whether or not earlier clients were served: each arrival
// runs the §4.3 program from the EACH_FRAME handler of a pacer session,
// on the engine goroutine, and a refusal is final.  It is the one
// workload whose virtual metrics sit off their ceilings.
const (
	ovlDisks     = 4
	ovlWidth     = 2
	ovlTracks    = 64
	ovlSeek      = 24 * avtime.Millisecond
	ovlSettle    = 3 * avtime.Millisecond
	ovlSwap      = 2 * avtime.Second
	ovlTolerance = 50 * avtime.Millisecond
	ovlLatency   = 2 * avtime.Millisecond
	ovlJitter    = 2 * avtime.Millisecond
	ovlExponent  = 1.1

	// ovlCapacity is how many full-quality streams the admission budget
	// holds at once; with every clip ovlClipFrames long it sets the
	// platform's capacity in arrivals per frame.
	ovlCapacity = 60
	ovlLowRate  = 0.5 // arrival rate at the cycle's ends, × capacity
	ovlHighRate = 2.0 // and at its middle

	// Streams book the disks optimistically: each reserves ovlBindRate,
	// above its mean data rate so a chunk transfers in a few
	// milliseconds, yet the disks' platter bandwidth only carries about
	// two thirds of a full admission budget of them inside a frame
	// period once seeks are paid — the §3.3 admission the engine's
	// run-time overload control has to clean up after.
	ovlBindRate = 256 * 1024
	ovlDiskBW   = 4 * media.MBPerSecond
	ovlJukeBW   = 3 * media.MBPerSecond
	ovlLinkMul  = 2 // link reservation as a multiple of the data rate

	ovlSweepEvery  = 30 // pacer frames between tier demotion sweeps
	ovlStallFrames = 3  // consecutive late frames that make a stall
)

// Service classes: a fifth of the clients are High, two fifths Normal,
// two fifths Low; only Low arms a degradation path.
func ovlPriority(u float64) sched.Priority {
	switch {
	case u < 0.2:
		return sched.PriorityHigh
	case u < 0.6:
		return sched.PriorityNormal
	default:
		return sched.PriorityLow
	}
}

// overloadFixtures are the parts of a platform that do not depend on the
// cycle: the synthesized library, reused when a cycle's platform is
// rebuilt.
type overloadFixtures struct {
	raws    []*media.VideoValue
	hashes  []uint64
	synthNS int64 // what synthesizing them cost the platform that did
}

type overload struct{ s *spec }

func (o *overload) spec() *spec { return o.s }

func (o *overload) build(e *env) (*platform, error) { return o.buildWith(e, nil) }

// rebuild gives the next cycle a fresh platform — the obs collector
// keeps every span it is handed, so one platform's heap would grow with
// the run — around the library the retiring one synthesized.
func (o *overload) rebuild(e *env, old *platform) (*platform, error) {
	return o.buildWith(e, old.extra.(*overloadFixtures))
}

func (o *overload) buildWith(e *env, fx *overloadFixtures) (*platform, error) {
	sp := o.s
	q := media.VideoQuality{Width: sp.width, Height: sp.height, Depth: 8, FPS: 30}
	clipBytes := int64(sp.clipFrames) * q.FrameSize()
	capacity := sp.capacity
	db, err := core.Open(core.Config{
		Name: "overload",
		Resources: sched.Resources{
			Buffers: 4 * capacity,
			CPU:     media.DataRate(capacity) * q.DataRate(),
			Bus:     media.DataRate(capacity) * q.DataRate(),
		},
		Workers: e.workers,
		// Arrivals are admitted from an event handler mid-step, which the
		// sharded engine excludes from its byte-identity guarantee; the
		// open loop therefore steps serially at every parallelism.
		EngineWorkers: 1,
		Striping:      storage.StripePolicy{Width: ovlWidth, Seeks: true, Rounds: true},
		// No lookahead: a stream's next chunk comes from its scheduled
		// read, so the SCAN-EDF rounds carry every stream and their
		// deadline misses are the pressure signal; the pool still lets a
		// viewer a few frames behind another share its chunks.
		Cache: storage.CachePolicy{Capacity: vodPoolCap},
		Tiering: storage.TierPolicy{
			PromoteAt: 3, DemoteBelow: 0.5, HalfLife: 4 * avtime.Second, Width: ovlWidth,
			Replicas: storage.ReplicaPolicy{Copies: 2, PromoteAt: 8},
		},
	})
	if err != nil {
		return nil, err
	}
	p := &platform{db: db, tolerance: ovlTolerance, bindRate: ovlBindRate, linkRate: ovlLinkMul * q.DataRate(), netChunkBytes: q.FrameSize()}
	for i := 0; i < ovlDisks; i++ {
		// Room for the hot half and most, not all, of the promotions and
		// replicas the cycle will want: the disk tier runs nearly full, so
		// the data spans the platter and promotion has to demote.
		d := device.NewDisk(fmt.Sprintf("disk%d", i), int64(sp.clips)*clipBytes*5/12, ovlDiskBW, ovlSeek)
		if err := d.SetGeometry(ovlTracks, ovlSettle); err != nil {
			return nil, err
		}
		if err := db.Devices().Register(d); err != nil {
			return nil, err
		}
		p.disks = append(p.disks, d)
	}
	p.jukebox = device.NewJukebox("jukebox0", sp.clips/2+1, 2*clipBytes, ovlJukeBW, ovlSwap)
	if err := db.Devices().Register(p.jukebox); err != nil {
		return nil, err
	}
	p.link = netsim.NewLink("lan0", media.DataRate(capacity)*p.linkRate*5/4, ovlLatency, ovlJitter, e.subSeed("link", 0))
	if err := db.Network().AddLink(p.link); err != nil {
		return nil, err
	}
	if e.obsOn(sp) {
		p.col = db.EnableObservability()
	}
	// More sensitive than the defaults (5% and 25%): on this platform a
	// round that overruns makes only its tail miss, and the detector has
	// to reach Overloaded for Start to shed anyone.
	db.Engine().EnableOverloadControl(sched.OverloadPolicy{PressureMiss: 0.03, OverloadMiss: 0.10})
	if err := defineCatalog(db); err != nil {
		return nil, err
	}
	p.model = &catalogModel{days: sp.catalogDays}

	if fx == nil {
		fx = &overloadFixtures{}
		for k := 0; k < sp.clips; k++ {
			t0 := e.sw.now()
			raw := synth.Video(media.TypeRawVideo30, synth.PatternMotion, sp.width, sp.height, 8, sp.clipFrames, e.subSeed("clip", k))
			p.synthNS += e.sw.now() - t0
			h, err := hashRaw(raw)
			if err != nil {
				return nil, err
			}
			fx.raws = append(fx.raws, raw)
			fx.hashes = append(fx.hashes, h)
		}
		fx.synthNS = p.synthNS
	}
	p.extra = fx
	p.synthNS, p.synthFrames = fx.synthNS, int64(len(fx.raws)*sp.clipFrames)

	rng := e.rngFor("catalog", 0)
	for k, raw := range fx.raws {
		en := p.model.newEntry(rng, "lib", sp.clipFrames)
		if err := p.model.insert(db, en, e.rec, e.setupSpan); err != nil {
			return nil, err
		}
		if err := db.SetAttr(en.oid, "video", schema.Media(raw)); err != nil {
			return nil, err
		}
		t2 := e.sw.now()
		// Odd ranks are the cold half: archived one per disc (disc 0 sits
		// in the drive, so the first cold read of a cycle pays a swap).
		if k%2 == 1 {
			_, err = db.PlaceMediaOnDisc(en.oid, "video", p.jukebox.ID(), k/2+1)
		} else {
			_, err = db.PlaceMediaStriped(en.oid, "video", p.bindRate, ovlWidth)
		}
		if err != nil {
			return nil, err
		}
		p.placeNS += e.sw.now() - t2
		p.placedBytes += raw.Size()
		h := fx.hashes[k]
		p.clips = append(p.clips, &clip{
			en: en, value: raw, frames: sp.clipFrames, width: sp.width, height: sp.height,
			attr: "video", wantHash: h, haveHash: true,
		})
	}
	return p, nil
}

// ovlRate is the arrival rate, in clients per pacer frame, at frame f of
// a cycle: a triangle from ovlLowRate × capacity up to ovlHighRate ×
// capacity at mid-cycle and back.
func (o *overload) ovlRate(f int) float64 {
	capacity := float64(o.s.capacity) / float64(o.s.clipFrames)
	x := float64(f) / float64(o.s.cycleFrames)
	tri := 1 - math.Abs(2*x-1)
	return capacity * (ovlLowRate + (ovlHighRate-ovlLowRate)*tri)
}

// plan draws one cycle's arrivals.  The k-th client arrives where the
// cumulative rate passes k + u, u uniform in [0, 1): the count per cycle
// is fixed by the ramp, the instants are the seed's.  Clip (Zipf), class
// and order are the seed's too.  The first High client is sampled.
func (o *overload) plan(e *env, p *platform, w int) []sessionPlan {
	sp := o.s
	rng := e.rngFor("arrivals", w)
	weights := make([]float64, sp.clips)
	var total float64
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), ovlExponent)
		total += weights[k]
	}
	var plans []sessionPlan
	var cum float64
	next := rng.Float64()
	for f := 0; f < sp.cycleFrames; f++ {
		cum += o.ovlRate(f)
		for cum >= next {
			u := rng.Float64() * total
			clip := 0
			for clip < sp.clips-1 && u >= weights[clip] {
				u -= weights[clip]
				clip++
			}
			plans = append(plans, sessionPlan{kind: planPlay, clip: clip, prio: ovlPriority(rng.Float64()), arrive: f})
			next = math.Floor(next) + 1 + rng.Float64()
		}
	}
	sampled := false
	for i := range plans {
		plans[i].idx = i
		if !sampled && plans[i].prio == sched.PriorityHigh {
			plans[i].sample, sampled = true, true
		}
	}
	return plans
}

func (o *overload) wire(e *env, p *platform, l *live) (*wiring, error) {
	// Admission resources are reserved in admit, as a grant the
	// degradation path can shrink, not through Install.
	return wirePlayback(e, p, l, sched.Resources{})
}

func (o *overload) settle(*env, *platform, *live, *waveResult, *fingerprinter) error { return nil }

// admit reserves the client's admission bundle and, for the Low class,
// arms the degradation path the engine's overload sweeps drive.
func (o *overload) admit(e *env, p *platform, l *live) error {
	q := media.VideoQuality{Width: o.s.width, Height: o.s.height, Depth: 8, FPS: 30}
	id := e.rec.begin(l.span, "sched", "Reserve")
	grant, err := p.db.Admission().Reserve(core.ResourcesForVideo(q))
	e.rec.end(id)
	if err != nil {
		return err
	}
	l.grant = grant
	// Every window reports sustained lateness to the engine's detector.
	l.stall = l.win.EnableStallDetection(p.tolerance, ovlStallFrames)
	l.sess.WatchStalls(l.stall)
	if l.plan.prio != sched.PriorityLow {
		return nil
	}
	var conn *netsim.Conn
	if len(l.netConns) > 0 {
		conn = l.netConns[0].Network()
	}
	id = e.rec.begin(l.span, "core", "EnableDegradation")
	err = l.sess.EnableDegradation(core.DegradeSpec{
		Source: l.reader, Port: "out", Sink: l.win,
		Quality: media.VideoQuality{Width: q.Width / 2, Height: q.Height / 2, Depth: 8, FPS: 30},
		Grant:   grant, Conn: conn,
	})
	e.rec.end(id)
	return err
}

// admitter is implemented by a workload that reserves admission
// resources itself, between wiring and Start.
type admitter interface {
	admit(e *env, p *platform, l *live) error
}

// runOpenLoop is the open-loop stream phase.  The driver goroutine wires
// a pacer session — a digitizer ticking once per frame of the cycle —
// starts it and waits; everything else happens in the pacer's EACH_FRAME
// handler on the engine goroutine: sessions whose stream ended are
// settled and closed, the frame's arrivals run the §4.3 program, and
// every ovlSweepEvery frames the store's demotion sweep runs.  When the
// pacer ends the driver settles whoever is still playing.
func runOpenLoop(e *env, wl workload, p *platform, lives []*live, res *waveResult, waveSpan int32, h *lateHist, fp *fingerprinter) {
	sp := wl.spec()
	phase := e.rec.begin(waveSpan, "bench", "run")
	start := e.sw.now()
	defer func() {
		res.runNS = e.sw.now() - start - res.checkNS
		e.rec.end(phase)
	}()

	byFrame := make(map[int][]*live)
	for _, l := range lives {
		byFrame[l.plan.arrive] = append(byFrame[l.plan.arrive], l)
	}
	blank := media.NewFrame(8, 8, 8)
	dig, err := activities.NewVideoDigitizer("pacer", activity.AtApplication, func(int) *media.Frame { return blank }, sp.cycleFrames)
	if err != nil {
		res.fail(err)
		return
	}
	sink := activities.NewVideoWindow("pacer-window", activity.AtApplication, media.VideoQuality{}, 0)
	pacer, err := p.db.Connect("pacer", p.link.ID())
	if err != nil {
		res.fail(err)
		return
	}
	defer pacer.Close()
	for _, a := range []activity.Activity{dig, sink} {
		if err := pacer.Install(a, sched.Resources{}); err != nil {
			res.fail(err)
			return
		}
	}
	if _, err := pacer.Connect(dig, "out", sink, "in", 0); err != nil {
		res.fail(err)
		return
	}

	var active []*live
	reap := func() {
		keep := active[:0]
		for _, l := range active {
			select {
			case <-l.pb.Done():
				finishOne(e, wl, p, l, res, h, fp)
			default:
				keep = append(keep, l)
			}
		}
		active = keep
	}
	arrive := func(l *live) {
		openOne(e, wl, p, l, waveSpan)
		if l.done {
			return
		}
		if ad, ok := wl.(admitter); ok {
			t0 := e.sw.now()
			err := ad.admit(e, p, l)
			l.openNS += e.sw.now() - t0
			if err != nil {
				refuse(l, err)
				abandon(e, l)
				return
			}
		}
		startOne(e, p, l)
		if !l.done {
			active = append(active, l)
		}
	}
	if err := dig.Catch(activity.EventEachFrame, func(info activity.EventInfo) {
		t0 := e.sw.now()
		reap()
		for _, l := range byFrame[info.Seq] {
			arrive(l)
		}
		if len(byFrame[info.Seq]) > 0 {
			p.samplePeaks()
		}
		if info.Seq%ovlSweepEvery == ovlSweepEvery-1 {
			p.db.Storage().SweepTiers(p.db.Clock().Now())
		}
		res.handlerNS += e.sw.now() - t0
	}); err != nil {
		res.fail(err)
		return
	}

	pb, err := pacer.Start()
	if err != nil {
		res.fail(fmt.Errorf("bench: starting the pacer: %w", err))
		return
	}
	id := e.rec.begin(phase, "core", "Wait")
	_, err = pb.Wait()
	e.rec.end(id)
	if err != nil {
		res.fail(fmt.Errorf("bench: the pacer failed: %w", err))
	}
	// The pacer's completion orders everything its handler did before
	// this point; the clients still playing are the driver's now.  It
	// lets every one of them end before it closes any: a close frees
	// admission budget, and whether the engine's restore sweep finds that
	// budget must not depend on how fast this goroutine runs.
	for _, l := range active {
		id := e.rec.begin(phase, "core", "Wait")
		l.pb.Wait()
		e.rec.end(id)
	}
	for _, l := range active {
		finishOne(e, wl, p, l, res, h, fp)
	}
	for _, l := range lives {
		if !l.done {
			// Never reached its arrival frame: cannot happen while every
			// plan's frame lies inside the cycle.
			l.err = fmt.Errorf("bench: client %d was never attempted", l.plan.idx)
			l.done = true
		}
		if l.refused {
			fp.note("refused:%d;", l.plan.idx)
		}
	}
}
