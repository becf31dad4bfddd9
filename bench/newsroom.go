package main

import (
	"fmt"

	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/codec"
	"avdb/internal/core"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
	"avdb/internal/schema"
	"avdb/internal/storage"
	"avdb/internal/synth"
	"avdb/internal/temporal"
)

// newsroom_decode: §4.3's second program.  A wave is a closed loop of a
// few viewers, each alone on its own Newscast: a MultiSource reads the
// clip's MPEG-sim video, voice narration and subtitles from three disks
// and a MultiSink decodes and presents them in sync.  Frames are large
// and every one is decoded, so host time goes to codec, the activities
// and the composites; engine bookkeeping is noise, and because no two
// viewers share a chunk the buffer pool sees only its own lookahead —
// the "bypasses the cache" case.
const (
	newsVideoDisks = 4
	newsAudioDisks = 2
	newsTolerance  = 80 * avtime.Millisecond
	newsLatency    = 2 * avtime.Millisecond
	newsJitter     = 2 * avtime.Millisecond
	newsBindRate   = 4 * media.MBPerSecond // reserved per track stream
	newsLinkRate   = 4 * media.MBPerSecond // reserved per composite connection
	newsSeek       = 8 * avtime.Millisecond
	newsSettle     = 1 * avtime.Millisecond
	newsTracks     = 16

	trackVideo    = "videoTrack"
	trackAudio    = "englishTrack"
	trackSubtitle = "subtitleTrack"
)

// mpegQuant is the quantizer of the registered MPEG-sim codec, which the
// per-session stream decoders must share with it.
func mpegParams() (quant, gop int) {
	inter := codec.MPEG.(*codec.Inter)
	return inter.Quant, inter.GOPN
}

type newsroom struct{ s *spec }

func (n *newsroom) spec() *spec { return n.s }

func (n *newsroom) build(e *env) (*platform, error) {
	sp := n.s
	q := media.VideoQuality{Width: sp.width, Height: sp.height, Depth: 8, FPS: 30}
	seconds := float64(sp.clipFrames) / 30
	db, err := core.Open(core.Config{
		Name: "newsroom",
		Resources: sched.Resources{
			Buffers: 8 * sp.sessions,
			CPU:     media.DataRate(4*sp.sessions) * q.DataRate(),
			Bus:     media.DataRate(4*sp.sessions) * q.DataRate(),
		},
		Workers:       e.workers,
		EngineWorkers: e.workers,
		Striping:      storage.StripePolicy{Seeks: true, Rounds: true},
		Cache:         storage.CachePolicy{Capacity: vodPoolCap, Lookahead: vodLookahead},
	})
	if err != nil {
		return nil, err
	}
	p := &platform{db: db, quality: q, tolerance: newsTolerance, bindRate: newsBindRate, linkRate: newsLinkRate,
		probeW: sp.width, probeH: sp.height, seqRounds: true}
	// Every disk can carry every stream that could land on it at once.
	diskBW := media.DataRate(2*sp.sessions) * newsBindRate
	diskCap := int64(sp.clips) * int64(sp.clipFrames) * q.FrameSize()
	for i := 0; i < newsVideoDisks+newsAudioDisks+1; i++ {
		d := device.NewDisk(fmt.Sprintf("disk%d", i), diskCap, diskBW, newsSeek)
		if err := d.SetGeometry(newsTracks, newsSettle); err != nil {
			return nil, err
		}
		if err := db.Devices().Register(d); err != nil {
			return nil, err
		}
		p.disks = append(p.disks, d)
	}
	p.link = netsim.NewLink("lan0", media.DataRate(2*sp.sessions)*newsLinkRate, newsLatency, newsJitter, e.subSeed("link", 0))
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
		speech, err := synth.Speech(media.AudioQualityVoice, seconds, e.subSeed("speech", k))
		if err != nil {
			return nil, err
		}
		subs, err := synth.Subtitles([]string{"good evening", "our top story", "more at eleven", "goodnight"}, int64(seconds*1000/4))
		if err != nil {
			return nil, err
		}
		t2 := e.sw.now()
		stored, err := db.ImportVideo(raw, core.RepresentationHints{Archive: true})
		if err != nil {
			return nil, err
		}
		p.synthNS += t1 - t0
		p.synthFrames += int64(sp.clipFrames)
		p.speechNS += t2 - t1
		p.speechSeconds += seconds
		p.rawBytes += raw.Size()
		p.storedBytes += stored.Size()

		comp := temporal.NewComposite("clip")
		for _, tr := range []struct {
			name string
			v    media.Value
		}{{trackVideo, stored}, {trackAudio, speech}, {trackSubtitle, subs}} {
			if err := comp.Add(tr.name, tr.v); err != nil {
				return nil, err
			}
		}
		en := p.model.newEntry(rng, "news", sp.clipFrames)
		if err := p.model.insert(db, en, e.rec, e.setupSpan); err != nil {
			return nil, err
		}
		if err := db.SetAttr(en.oid, "clip", schema.TComp(comp)); err != nil {
			return nil, err
		}
		t3 := e.sw.now()
		for _, pl := range []struct {
			track string
			disk  int
		}{
			{trackVideo, k % newsVideoDisks},
			{trackAudio, newsVideoDisks + k%newsAudioDisks},
			{trackSubtitle, newsVideoDisks + newsAudioDisks},
		} {
			if _, err := db.PlaceTrack(en.oid, "clip", pl.track, p.disks[pl.disk].ID(), newsBindRate); err != nil {
				return nil, err
			}
		}
		p.placeNS += e.sw.now() - t3
		p.placedBytes += stored.Size() + speech.Size() + subs.Size()

		c := &clip{en: en, value: stored, frames: sp.clipFrames, width: sp.width, height: sp.height,
			attr: "clip", track: trackVideo, audioSamples: int64(speech.NumSamples())}
		ev := stored.(*codec.EncodedVideo)
		c.hashFrames = func() (uint64, error) {
			dec, err := codec.MPEG.Decode(ev)
			if err != nil {
				return 0, err
			}
			return hashRaw(dec)
		}
		p.clips = append(p.clips, c)
		if k == 0 {
			p.probeDecode = stored
			p.netChunkBytes = stored.Size()/int64(sp.clipFrames) + speech.Size()/int64(sp.clipFrames)
		}
	}
	return p, nil
}

// plan gives every clip exactly one viewer, in an order shuffled by the
// wave's seed; the first is the sampled one.
func (n *newsroom) plan(e *env, p *platform, w int) []sessionPlan {
	plans := make([]sessionPlan, n.s.sessions)
	order := e.rngFor("shuffle", w).Perm(n.s.clips)
	for i := range plans {
		plans[i] = sessionPlan{idx: i, kind: planPlay, clip: order[i%len(order)], prio: sched.PriorityNormal}
	}
	plans[0].sample = true
	return plans
}

func (n *newsroom) wire(e *env, p *platform, l *live) (*wiring, error) {
	return wireNewscast(e, p, l)
}

func (n *newsroom) settle(*env, *platform, *live, *waveResult, *fingerprinter) error { return nil }

// wireNewscast builds the composite pair of §4.3: a MultiSource of three
// readers at the database, and at the application a MultiSink whose
// video component is itself a composite — decoder → window — so the
// compressed stream crosses the link and is decoded where it is shown.
func wireNewscast(e *env, p *platform, l *live) (*wiring, error) {
	l.clip = p.clips[l.plan.clip]
	l.decodes = true
	k := e.kit
	seed := e.subSeed("latency", l.plan.clip)

	src := activities.NewMultiSource("dbSource", activity.AtDatabase)
	srcAct, srcT := k.composite(src, nil)
	vr, vrC, vrT, err := k.videoReader(trackVideo, activity.AtDatabase, codec.TypeMPEGVideo, srcT)
	if err != nil {
		return nil, err
	}
	vrC.SetLatency(sched.NewLatency(8*avtime.Millisecond, 6*avtime.Millisecond, seed))
	ar, arC, arT, err := k.audioReader(trackAudio, activity.AtDatabase, media.TypeVoiceAudio, srcT)
	if err != nil {
		return nil, err
	}
	arC.SetLatency(sched.NewLatency(2*avtime.Millisecond, avtime.Millisecond, seed+1))
	sr, srT := k.subtitleReader(trackSubtitle, activity.AtDatabase, srcT)
	for _, a := range []activity.Activity{vr, ar, sr} {
		if err := src.Install(a); err != nil {
			return nil, err
		}
	}
	if err := activities.SealMultiSource(src); err != nil {
		return nil, err
	}

	sink := activities.NewMultiSink("appSink", activity.AtApplication)
	sinkAct, sinkT := k.composite(sink, nil)
	view := activity.NewComposite(trackVideo, "DecodingWindow", activity.AtApplication)
	viewAct, viewT := k.composite(view, sinkT)
	quant, _ := mpegParams()
	sd, err := codec.NewVideoStreamDecoder(l.clip.width, l.clip.height, 8, quant)
	if err != nil {
		return nil, err
	}
	dec, decT, err := k.videoDecoder("decoder", activity.AtApplication, codec.TypeMPEGVideo, sd, viewT)
	if err != nil {
		return nil, err
	}
	winAct, win, winT := k.videoWindow("window", activity.AtApplication, p.quality, p.tolerance, viewT)
	l.win = win
	for _, a := range []activity.Activity{dec, winAct} {
		if err := view.Install(a); err != nil {
			return nil, err
		}
	}
	if _, err := view.ConnectChildren(dec, "out", winAct, "in"); err != nil {
		return nil, err
	}
	if err := view.ExportIn("in", dec, "in"); err != nil {
		return nil, err
	}
	dacAct, dac, dacT, err := k.audioSink(trackAudio, activity.AtApplication, media.TypeVoiceAudio, media.AudioQualityVoice, p.tolerance, sinkT)
	if err != nil {
		return nil, err
	}
	l.dac = dac
	subAct, _, subT := k.subtitleSink(trackSubtitle, activity.AtApplication, sinkT)
	for _, a := range []activity.Activity{viewAct, dacAct, subAct} {
		if err := sink.Install(a); err != nil {
			return nil, err
		}
	}
	if err := activities.SealMultiSink(sink); err != nil {
		return nil, err
	}

	return &wiring{
		nodes:  []activity.Activity{srcAct, sinkAct},
		res:    []sched.Resources{{Buffers: 3, CPU: p.quality.DataRate(), Bus: p.quality.DataRate()}, {}},
		edges:  []edge{{srcAct, "out", sinkAct, "in", p.linkRate}},
		timers: []*tickTimer{srcT, vrT, arT, srT, sinkT, viewT, decT, winT, dacT, subT},
		bind: func(s *core.Session, oid schema.OID) error {
			return s.BindClip(oid, l.clip.attr, src, p.bindRate)
		},
		// Only the executor probe binds directly, so only it pays for
		// reading the tcomp back; the timed open path does not.
		direct: func() error {
			comp, err := tcompOf(p, l.clip)
			if err != nil {
				return err
			}
			for _, ch := range src.Children() {
				if tr, ok := comp.Track(ch.Name()); ok {
					if err := ch.Bind(tr.Value, "out"); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}, nil
}

// tcompOf reads the clip's temporal composite back from the database.
func tcompOf(p *platform, c *clip) (*temporal.Composite, error) {
	d, err := p.db.GetAttr(c.en.oid, c.attr)
	if err != nil {
		return nil, err
	}
	if d.Kind() != schema.KindTComp {
		return nil, fmt.Errorf("bench: %q.%s is %v, not a tcomp", c.en.title, c.attr, d.Kind())
	}
	return d.TCompVal(), nil
}
