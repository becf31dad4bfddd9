package main

import (
	"fmt"
	"math"
	"sort"

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

// vod_zipf: the video-on-demand tenancy.  A wave is a closed loop of
// spec.sessions viewers, each a VideoReader → VideoWindow pair over the
// network link, picking one of 12 raw clips by a Zipf(1.1) law.  Frames
// are tiny and never decoded, so host time goes to core.Engine, the
// sched run sets, the activity executor and the storage scheduled-read /
// buffer-pool path — the "many sessions, nothing per frame" corner.
const (
	vodDisks      = 8
	vodWidth      = 4
	vodExponent   = 1.1
	vodPoolCap    = 8
	vodLookahead  = 4
	vodSeek       = 10 * avtime.Millisecond
	vodSettle     = 1 * avtime.Millisecond
	vodTracks     = 16
	vodTolerance  = 50 * avtime.Millisecond
	vodLatency    = 2 * avtime.Millisecond
	vodJitter     = 2 * avtime.Millisecond
	vodDiskTarget = 0.65 // peak reserved share of a disk's bandwidth

	// Streams reserve storage and link bandwidth above their mean data
	// rate: a chunk's read and transfer are priced at the reserved rate,
	// so a reservation at exactly the data rate would spend a whole frame
	// period on each.
	vodBindRate  = media.MBPerSecond
	vodLinkBurst = 2 // link reservation as a multiple of the data rate
)

type vod struct{ s *spec }

func (v *vod) spec() *spec { return v.s }

// zipfQuotas splits sessions over ranks 1..clips in proportion to
// 1/rank^exponent by largest remainder: floors first, leftover seats to
// the largest fractional parts, ties to the more popular rank.
func zipfQuotas(sessions, clips int, exponent float64) []int {
	weights := make([]float64, clips)
	var total float64
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), exponent)
		total += weights[k]
	}
	quotas := make([]int, clips)
	fracs := make([]float64, clips)
	assigned := 0
	for k := range weights {
		exact := float64(sessions) * weights[k] / total
		quotas[k] = int(math.Floor(exact))
		fracs[k] = exact - math.Floor(exact)
		assigned += quotas[k]
	}
	order := make([]int, clips)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return fracs[order[i]] > fracs[order[j]] })
	for i := 0; assigned < sessions; i++ {
		quotas[order[i%clips]]++
		assigned++
	}
	return quotas
}

func (v *vod) build(e *env) (*platform, error) {
	sp := v.s
	q := media.VideoQuality{Width: sp.width, Height: sp.height, Depth: 8, FPS: 30}
	frameBytes := q.FrameSize()
	clipBytes := int64(sp.clipFrames) * frameBytes
	bind := media.DataRate(vodBindRate)

	// Size the disks so the busiest stripe group's reservations peak at
	// vodDiskTarget of a disk's bandwidth: clips alternate between the
	// two stripe groups, so the odd ranks' audience shares one group.
	quotas := zipfQuotas(sp.sessions, sp.clips, vodExponent)
	var groupLoad [2]int
	for k, n := range quotas {
		groupLoad[k%2] += n
	}
	busiest := groupLoad[0]
	if groupLoad[1] > busiest {
		busiest = groupLoad[1]
	}
	diskBW := media.DataRate(float64(busiest) * float64(bind) / vodWidth / vodDiskTarget)

	db, err := core.Open(core.Config{
		Name: "vod",
		Resources: sched.Resources{
			Buffers: 2 * sp.sessions,
			CPU:     media.DataRate(2*sp.sessions) * bind,
			Bus:     media.DataRate(2*sp.sessions) * bind,
		},
		Workers:       e.workers,
		EngineWorkers: e.workers,
		Striping:      storage.StripePolicy{Width: vodWidth, Seeks: true, Rounds: true},
		Cache:         storage.CachePolicy{Capacity: vodPoolCap, Lookahead: vodLookahead},
	})
	if err != nil {
		return nil, err
	}
	p := &platform{db: db, quality: q, tolerance: vodTolerance, bindRate: bind, linkRate: vodLinkBurst * q.DataRate(), netChunkBytes: frameBytes}
	for i := 0; i < vodDisks; i++ {
		d := device.NewDisk(fmt.Sprintf("disk%d", i), int64(sp.clips)*clipBytes, diskBW, vodSeek)
		if err := d.SetGeometry(vodTracks, vodSettle); err != nil {
			return nil, err
		}
		if err := db.Devices().Register(d); err != nil {
			return nil, err
		}
		p.disks = append(p.disks, d)
	}
	p.link = netsim.NewLink("lan0", media.DataRate(sp.sessions)*vodLinkBurst*q.DataRate()*3/2, vodLatency, vodJitter, e.subSeed("link", 0))
	if err := db.Network().AddLink(p.link); err != nil {
		return nil, err
	}
	if e.obsOn(sp) {
		p.col = db.EnableObservability()
	}
	if err := defineCatalog(db); err != nil {
		return nil, err
	}
	p.model = &catalogModel{days: sp.catalogDays}
	rng := e.rngFor("catalog", 0)
	for k := 0; k < sp.clips; k++ {
		t0 := e.sw.now()
		raw := synth.Video(media.TypeRawVideo30, synth.PatternMotion, sp.width, sp.height, 8, sp.clipFrames, e.subSeed("clip", k))
		t1 := e.sw.now()
		p.synthNS += t1 - t0
		p.synthFrames += int64(sp.clipFrames)

		en := p.model.newEntry(rng, "vod", sp.clipFrames)
		if err := p.model.insert(db, en, e.rec, e.setupSpan); err != nil {
			return nil, err
		}
		if err := db.SetAttr(en.oid, "video", schema.Media(raw)); err != nil {
			return nil, err
		}
		t2 := e.sw.now()
		if _, err := db.PlaceMediaStriped(en.oid, "video", bind, vodWidth); err != nil {
			return nil, err
		}
		p.placeNS += e.sw.now() - t2
		p.placedBytes += raw.Size()
		c := &clip{en: en, value: raw, frames: sp.clipFrames, width: sp.width, height: sp.height, attr: "video"}
		c.hashFrames = func() (uint64, error) { return hashRaw(raw) }
		p.clips = append(p.clips, c)
	}
	return p, nil
}

// hashRaw hashes a raw clip's frames in presentation order.
func hashRaw(v *media.VideoValue) (uint64, error) {
	frames := make([]*media.Frame, v.NumFrames())
	for i := range frames {
		f, err := v.Frame(i)
		if err != nil {
			return 0, err
		}
		frames[i] = f
	}
	return hashFrames(frames), nil
}

// plan assigns the wave's viewers to clips by the Zipf quotas and
// shuffles their order with the wave's seed; the first viewer of the
// shuffled order is the one whose frames are kept and hashed.
func (v *vod) plan(e *env, p *platform, w int) []sessionPlan {
	quotas := zipfQuotas(v.s.sessions, v.s.clips, vodExponent)
	plans := make([]sessionPlan, 0, v.s.sessions)
	for k, n := range quotas {
		for i := 0; i < n; i++ {
			plans = append(plans, sessionPlan{kind: planPlay, clip: k, prio: sched.PriorityNormal})
		}
	}
	rng := e.rngFor("shuffle", w)
	rng.Shuffle(len(plans), func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })
	for i := range plans {
		plans[i].idx = i
	}
	plans[0].sample = true
	return plans
}

func (v *vod) wire(e *env, p *platform, l *live) (*wiring, error) {
	return wirePlayback(e, p, l, core.ResourcesForVideo(p.quality))
}

func (v *vod) settle(*env, *platform, *live, *waveResult, *fingerprinter) error { return nil }

// wirePlayback builds the VideoReader → VideoWindow pair of a raw-clip
// viewer: the reader at the database holding res, the window at the
// application, the connection between them across the link.
func wirePlayback(e *env, p *platform, l *live, res sched.Resources) (*wiring, error) {
	l.clip = p.clips[l.plan.clip]
	src, reader, srcT, err := e.kit.videoReader("reader", activity.AtDatabase, media.TypeRawVideo30, nil)
	if err != nil {
		return nil, err
	}
	sink, win, winT := e.kit.videoWindow("window", activity.AtApplication, p.quality, p.tolerance, nil)
	l.reader, l.win = reader, win
	value := l.clip.value
	return &wiring{
		nodes:  []activity.Activity{src, sink},
		res:    []sched.Resources{res, {}},
		edges:  []edge{{src, "out", sink, "in", p.linkRate}},
		timers: []*tickTimer{srcT, winT},
		bind: func(s *core.Session, oid schema.OID) error {
			return s.BindValue(oid, "video", src, "out", p.bindRate)
		},
		direct: func() error { return src.Bind(value, "out") },
	}, nil
}
