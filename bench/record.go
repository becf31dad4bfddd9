package main

import (
	"fmt"
	"math/rand"

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
)

// record_and_catalog: the write side.  Set-up loads a catalog of
// thousands of metadata-only Newscasts; each wave opens with a burst of
// browse actions against it, then runs recording sessions (digitizer →
// MPEG-sim encoder → writer) beside review playbacks of what earlier
// waves recorded (reader → decoder → window) on the same disks and the
// same engine, commits every recording as a new catalog object with a
// striped placement and a checked-in version, and deletes a few old
// objects.  query, schema, txn, codec encode and placement allocation
// carry load here and nowhere else.
const (
	recDisks     = 6
	recWidth     = 3
	recTolerance = 80 * avtime.Millisecond
	recLatency   = 2 * avtime.Millisecond
	recJitter    = 2 * avtime.Millisecond
	recBindRate  = 4 * media.MBPerSecond
	recLinkRate  = 4 * media.MBPerSecond
	recSeek      = 8 * avtime.Millisecond
	recSettle    = 1 * avtime.Millisecond
	recTracks    = 16
	recCamera    = 90 // frames the synthetic camera loops over
)

// recordedVideo is the media value a recording commits: the encoded
// frames a VideoWriter collected, in order, as an MPEG-sim stream.
// codec.EncodedVideo has no constructor from frames, and a recording is
// exactly a value the database did not encode itself.
type recordedVideo struct {
	frames []*codec.EncodedFrame
	w, h   int
	tr     avtime.Transform
}

var _ media.Value = (*recordedVideo)(nil)

func newRecordedVideo(els []media.Element, w, h int) (*recordedVideo, error) {
	v := &recordedVideo{w: w, h: h, tr: avtime.NewTransform(codec.TypeMPEGVideo.Rate)}
	for i, el := range els {
		f, ok := el.(*codec.EncodedFrame)
		if !ok {
			return nil, fmt.Errorf("bench: recorded element %d is %T, not an encoded frame", i, el)
		}
		v.frames = append(v.frames, f)
	}
	return v, nil
}

func (v *recordedVideo) Type() *media.Type       { return codec.TypeMPEGVideo }
func (v *recordedVideo) NumElements() int        { return len(v.frames) }
func (v *recordedVideo) Start() avtime.WorldTime { return v.tr.Translate }
func (v *recordedVideo) Duration() avtime.WorldTime {
	return v.tr.DurationOf(avtime.ObjectTime(len(v.frames)))
}
func (v *recordedVideo) Interval() avtime.Interval {
	return avtime.Interval{Start: v.Start(), Dur: v.Duration()}
}
func (v *recordedVideo) WorldToObject(w avtime.WorldTime) avtime.ObjectTime {
	return v.tr.WorldToObject(w)
}
func (v *recordedVideo) ObjectToWorld(o avtime.ObjectTime) avtime.WorldTime {
	return v.tr.ObjectToWorld(o)
}
func (v *recordedVideo) Scale(f float64)               { v.tr = v.tr.Scaled(f) }
func (v *recordedVideo) Translate(dw avtime.WorldTime) { v.tr = v.tr.Translated(dw) }
func (v *recordedVideo) Element(w avtime.WorldTime) (media.Element, error) {
	return v.ElementAt(v.tr.WorldToObject(w))
}
func (v *recordedVideo) ElementAt(o avtime.ObjectTime) (media.Element, error) {
	if o < 0 || int(o) >= len(v.frames) {
		return nil, fmt.Errorf("%w: recorded frame %d of %d", media.ErrOutOfRange, o, len(v.frames))
	}
	return v.frames[o], nil
}
func (v *recordedVideo) Size() int64 {
	var n int64
	for _, f := range v.frames {
		n += f.Size()
	}
	return n
}

// decodeHash decodes the stream the way a review session's decoder does
// and hashes the frames.
func (v *recordedVideo) decodeHash() (uint64, error) {
	quant, _ := mpegParams()
	dec, err := codec.NewVideoStreamDecoder(v.w, v.h, 8, quant)
	if err != nil {
		return 0, err
	}
	frames := make([]*media.Frame, len(v.frames))
	for i, ef := range v.frames {
		if frames[i], err = dec.DecodeFrame(ef); err != nil {
			return 0, err
		}
	}
	return hashFrames(frames), nil
}

// recording is the state of one planRecord session.
type recording struct {
	writer *activities.VideoWriter
}

// recordState is the workload's private platform state.
type recordState struct {
	camera []*media.Frame // the synthetic camera's loop
	extras []*entry       // metadata-only objects, the deletion pool
}

type record struct{ s *spec }

func (r *record) spec() *spec { return r.s }

func (r *record) build(e *env) (*platform, error) {
	sp := r.s
	q := media.VideoQuality{Width: sp.width, Height: sp.height, Depth: 8, FPS: 30}
	streams := sp.sessions + sp.recordings
	db, err := core.Open(core.Config{
		Name: "record",
		Resources: sched.Resources{
			Buffers: 8 * streams,
			CPU:     media.DataRate(4*streams) * q.DataRate(),
			Bus:     media.DataRate(4*streams) * q.DataRate(),
		},
		Workers:       e.workers,
		EngineWorkers: e.workers,
		Striping:      storage.StripePolicy{Width: recWidth, Seeks: true, Rounds: true},
		Cache:         storage.CachePolicy{Capacity: vodPoolCap, Lookahead: vodLookahead},
	})
	if err != nil {
		return nil, err
	}
	p := &platform{db: db, quality: q, tolerance: recTolerance, bindRate: recBindRate, linkRate: recLinkRate,
		probeW: sp.width, probeH: sp.height}
	// Disks never fill: the run only ever adds recordings.
	diskBW := media.DataRate(2*streams) * recBindRate
	for i := 0; i < recDisks; i++ {
		d := device.NewDisk(fmt.Sprintf("disk%d", i), 1<<40, diskBW, recSeek)
		if err := d.SetGeometry(recTracks, recSettle); err != nil {
			return nil, err
		}
		if err := db.Devices().Register(d); err != nil {
			return nil, err
		}
		p.disks = append(p.disks, d)
	}
	p.link = netsim.NewLink("lan0", media.DataRate(2*streams)*recLinkRate, recLatency, recJitter, e.subSeed("link", 0))
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
	st := &recordState{}
	p.extra = st

	// The catalog: metadata only, nothing to play.
	rng := e.rngFor("catalog", 0)
	for i := 0; i < sp.catalogExtra; i++ {
		en := p.model.newEntry(rng, "arch", 0)
		if err := p.model.insert(db, en, e.rec, e.setupSpan); err != nil {
			return nil, err
		}
		st.extras = append(st.extras, en)
	}

	// The camera, and the clips wave 0 reviews: recorded here the way a
	// wave records them, without the engine.
	t0 := e.sw.now()
	cam := synth.Video(media.TypeRawVideo30, synth.PatternMotion, sp.width, sp.height, 8, recCamera, e.subSeed("camera", 0))
	p.synthNS += e.sw.now() - t0
	p.synthFrames += recCamera
	for i := 0; i < recCamera; i++ {
		f, err := cam.Frame(i)
		if err != nil {
			return nil, err
		}
		st.camera = append(st.camera, f)
	}
	p.probeEncode = st.camera
	quant, gop := mpegParams()
	for k := 0; k < sp.clips; k++ {
		enc, err := codec.NewInterStreamEncoder(quant, gop)
		if err != nil {
			return nil, err
		}
		offset := rng.Intn(recCamera)
		els := make([]media.Element, sp.recordFrames)
		for i := range els {
			if els[i], err = enc.EncodeFrame(st.camera[(offset+i)%recCamera]); err != nil {
				return nil, err
			}
		}
		v, err := newRecordedVideo(els, sp.width, sp.height)
		if err != nil {
			return nil, err
		}
		if _, err := r.commit(e, p, rng, v, e.setupSpan, true); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// commit files a finished recording: a new catalog object with its five
// scalars, the media attribute, a striped placement and a checked-in
// version, then reads it back.  It returns the new library clip.  setup
// marks the commits build makes, whose placements count as set-up.
func (r *record) commit(e *env, p *platform, rng *rand.Rand, v *recordedVideo, parent int32, setup bool) (*clip, error) {
	sp, rec := r.s, e.rec
	en := p.model.newEntry(rng, "rec", v.NumElements())
	if err := p.model.insert(p.db, en, rec, parent); err != nil {
		return nil, err
	}
	id := rec.begin(parent, "txn", "SetAttr")
	err := p.db.SetAttr(en.oid, "video", schema.Media(v))
	rec.end(id)
	if err != nil {
		return nil, err
	}
	t0 := e.sw.now()
	id = rec.begin(parent, "storage", "Place")
	_, err = p.db.PlaceMediaStriped(en.oid, "video", p.bindRate, recWidth)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if setup {
		p.placeNS += e.sw.now() - t0 // a wave's placements are read from their spans
		p.placedBytes += v.Size()
	}
	id = rec.begin(parent, "txn", "Checkin")
	_, err = p.db.Versions().Checkin(en.oid, "video", v, "recorded")
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin(parent, "core", "GetAttr")
	d, err := p.db.GetAttr(en.oid, "video")
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if got := d.MediaVal().NumElements(); got != v.NumElements() {
		return nil, fmt.Errorf("bench: recording %q reads back %d frames, recorded %d", en.title, got, v.NumElements())
	}
	p.rawBytes += int64(v.NumElements()) * p.quality.FrameSize()
	p.storedBytes += v.Size()
	c := &clip{en: en, value: v, frames: v.NumElements(), width: sp.width, height: sp.height, attr: "video"}
	c.hashFrames = v.decodeHash
	p.clips = append(p.clips, c)
	if p.probeDecode == nil {
		p.probeDecode = v
		p.netChunkBytes = v.Size() / int64(v.NumElements())
	}
	return c, nil
}

// plan: the wave's recordings first, then its review playbacks, which
// pick among the most recently committed clips; the first review is the
// sampled session.
func (r *record) plan(e *env, p *platform, w int) []sessionPlan {
	sp := r.s
	rng := e.rngFor("plan", w)
	plans := make([]sessionPlan, 0, sp.recordings+sp.sessions)
	for i := 0; i < sp.recordings; i++ {
		plans = append(plans, sessionPlan{kind: planRecord, prio: sched.PriorityNormal})
	}
	recent := len(p.clips) - sp.clips
	for i, k := range rng.Perm(sp.clips) {
		if i == sp.sessions {
			break
		}
		plans = append(plans, sessionPlan{kind: planPlay, clip: recent + k, prio: sched.PriorityNormal})
	}
	for i := range plans {
		plans[i].idx = i
	}
	plans[sp.recordings].sample = true
	return plans
}

func (r *record) wire(e *env, p *platform, l *live) (*wiring, error) {
	if l.plan.kind == planRecord {
		return r.wireRecording(e, p, l)
	}
	return wireDecodedPlayback(e, p, l)
}

// wireRecording builds camera → encoder at the application and the
// writer at the database: the compressed stream crosses the link.
func (r *record) wireRecording(e *env, p *platform, l *live) (*wiring, error) {
	st := p.extra.(*recordState)
	offset := int(e.subSeed("camera-offset", l.plan.idx) % recCamera)
	gen := func(i int) *media.Frame { return st.camera[(offset+i)%recCamera] }
	dig, digT, err := e.kit.videoDigitizer("camera", activity.AtApplication, gen, r.s.recordFrames)
	if err != nil {
		return nil, err
	}
	quant, gop := mpegParams()
	se, err := codec.NewInterStreamEncoder(quant, gop)
	if err != nil {
		return nil, err
	}
	enc, encT, err := e.kit.videoEncoder("encoder", activity.AtApplication, codec.TypeMPEGVideo, se)
	if err != nil {
		return nil, err
	}
	wr, writer, wrT, err := e.kit.videoWriter("writer", activity.AtDatabase, codec.TypeMPEGVideo)
	if err != nil {
		return nil, err
	}
	l.rec = &recording{writer: writer}
	return &wiring{
		nodes:  []activity.Activity{dig, enc, wr},
		res:    []sched.Resources{{}, {}, core.ResourcesForVideo(p.quality)},
		edges:  []edge{{dig, "out", enc, "in", 0}, {enc, "out", wr, "in", p.linkRate}},
		timers: []*tickTimer{digT, encT, wrT},
	}, nil
}

// wireDecodedPlayback builds reader → decoder → window over one stored
// MPEG-sim value: the reader at the database, decoder and window at the
// application.
func wireDecodedPlayback(e *env, p *platform, l *live) (*wiring, error) {
	l.clip = p.clips[l.plan.clip]
	l.decodes = true
	src, _, srcT, err := e.kit.videoReader("reader", activity.AtDatabase, codec.TypeMPEGVideo, nil)
	if err != nil {
		return nil, err
	}
	quant, _ := mpegParams()
	sd, err := codec.NewVideoStreamDecoder(l.clip.width, l.clip.height, 8, quant)
	if err != nil {
		return nil, err
	}
	dec, decT, err := e.kit.videoDecoder("decoder", activity.AtApplication, codec.TypeMPEGVideo, sd, nil)
	if err != nil {
		return nil, err
	}
	sink, win, winT := e.kit.videoWindow("window", activity.AtApplication, p.quality, p.tolerance, nil)
	l.win = win
	value := l.clip.value
	return &wiring{
		nodes:  []activity.Activity{src, dec, sink},
		res:    []sched.Resources{core.ResourcesForVideo(p.quality), {}, {}},
		edges:  []edge{{src, "out", dec, "in", p.linkRate}, {dec, "out", sink, "in", 0}},
		timers: []*tickTimer{srcT, decT, winT},
		bind: func(s *core.Session, oid schema.OID) error {
			return s.BindValue(oid, l.clip.attr, src, "out", p.bindRate)
		},
		direct: func() error { return src.Bind(value, "out") },
	}, nil
}

// settle commits a finished recording.  A recording has no presentation
// deadline: every committed frame counts as delivered on time.
func (r *record) settle(e *env, p *platform, l *live, res *waveResult, fp *fingerprinter) error {
	if l.plan.kind != planRecord {
		return nil
	}
	els := l.rec.writer.Collected()
	if len(els) != r.s.recordFrames {
		return fmt.Errorf("bench: %s recorded %d frames, want %d", l.sess.ID(), len(els), r.s.recordFrames)
	}
	v, err := newRecordedVideo(els, r.s.width, r.s.height)
	if err != nil {
		return err
	}
	rng := e.rngFor("commit", res.index*1000+l.plan.idx)
	commit := e.rec.begin(l.span, "bench", "commit")
	_, err = r.commit(e, p, rng, v, commit, false)
	e.rec.end(commit)
	if err != nil {
		return err
	}
	n := int64(len(els))
	res.frames += n
	res.onTime += n
	res.encoded += n
	res.placedBytes += v.Size()
	for _, c := range l.netConns {
		res.netChunks += c.Chunks()
	}
	fp.note("rec:%d:%d:%d;", l.plan.idx, n, v.Size())
	return nil
}

// afterWave deletes a few old metadata-only objects, drawn by the wave's
// seed, so the catalog sees deletions as well as insertions.
func (r *record) afterWave(e *env, p *platform, res *waveResult, waveSpan int32) {
	st := p.extra.(*recordState)
	rng := e.rngFor("delete", res.index)
	phase := e.rec.begin(waveSpan, "bench", "delete")
	defer e.rec.end(phase)
	for i := 0; i < r.s.deletesPerWave && len(st.extras) > 0; i++ {
		k := rng.Intn(len(st.extras))
		en := st.extras[k]
		st.extras[k] = st.extras[len(st.extras)-1]
		st.extras = st.extras[:len(st.extras)-1]
		id := e.rec.begin(phase, "txn", "DeleteObject")
		err := p.db.DeleteObject(en.oid)
		e.rec.end(id)
		if err != nil {
			res.fail(fmt.Errorf("bench: deleting %q: %w", en.title, err))
			return
		}
		en.alive = false
		p.model.writes++
	}
}
