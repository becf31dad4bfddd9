package activities

import (
	"strings"
	"testing"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/codec"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/obs"
	"avdb/internal/render"
	"avdb/internal/sched"
	"avdb/internal/storage"
	"avdb/internal/synth"
)

const (
	db  = activity.AtDatabase
	app = activity.AtApplication
)

func motionClip(frames int) *media.VideoValue {
	return synth.Video(media.TypeRawVideo30, synth.PatternMotion, 32, 24, 8, frames, 1)
}

func runGraph(t *testing.T, g *activity.Graph) *activity.RunStats {
	t.Helper()
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Run(activity.RunConfig{Clock: sched.NewVirtualClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func addAll(t *testing.T, g *activity.Graph, as ...activity.Activity) {
	t.Helper()
	for _, a := range as {
		if err := g.Add(a); err != nil {
			t.Fatal(err)
		}
	}
}

func connect(t *testing.T, g *activity.Graph, from activity.Activity, op string, to activity.Activity, ip string) {
	t.Helper()
	if _, err := g.Connect(from, op, to, ip); err != nil {
		t.Fatal(err)
	}
}

func TestTable1Taxonomy(t *testing.T) {
	// Every Table 1 class reports the port directions and kind the table
	// gives it.
	reader, err := NewVideoReader("r", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	dig, err := NewVideoDigitizer("d", db, func(int) *media.Frame { return media.NewFrame(2, 2, 8) }, 1)
	if err != nil {
		t.Fatal(err)
	}
	se, _ := codec.NewIntraStreamEncoder(2)
	enc, err := NewVideoEncoder("e", db, codec.TypeJPEGVideo, se)
	if err != nil {
		t.Fatal(err)
	}
	sd, _ := codec.NewVideoStreamDecoder(32, 24, 8, 2)
	dec, err := NewVideoDecoder("x", db, codec.TypeJPEGVideo, sd)
	if err != nil {
		t.Fatal(err)
	}
	tee, err := NewVideoTee("t", db, 3)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := NewVideoMixer("m", db, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	win := NewVideoWindow("w", app, media.VideoQuality{}, 0)
	wr, err := NewVideoWriter("vw", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		act  activity.Activity
		kind activity.ActivityKind
	}{
		{reader, activity.KindSource},
		{dig, activity.KindSource},
		{enc, activity.KindTransformer},
		{dec, activity.KindTransformer},
		{tee, activity.KindTransformer},
		{mix, activity.KindTransformer},
		{win, activity.KindSink},
		{wr, activity.KindSink},
	}
	for _, c := range cases {
		if c.act.Kind() != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.act.Name(), c.act.Kind(), c.kind)
		}
	}
	if len(tee.Ports()) != 4 {
		t.Error("tee port count wrong")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewVideoReader("r", db, media.TypeCDAudio); err == nil {
		t.Error("audio type accepted by VideoReader")
	}
	if _, err := NewVideoDigitizer("d", db, nil, 0); err == nil {
		t.Error("nil generator accepted")
	}
	se, _ := codec.NewIntraStreamEncoder(2)
	if _, err := NewVideoEncoder("e", db, media.TypeRawVideo30, se); err == nil {
		t.Error("raw type accepted by encoder")
	}
	sd, _ := codec.NewVideoStreamDecoder(2, 2, 8, 2)
	if _, err := NewVideoDecoder("d", db, media.TypeRawVideo30, sd); err == nil {
		t.Error("raw type accepted by decoder")
	}
	if _, err := NewVideoTee("t", db, 1); err == nil {
		t.Error("1-way tee accepted")
	}
	if _, err := NewVideoMixer("m", db, []float64{1}); err == nil {
		t.Error("1-input mixer accepted")
	}
	if _, err := NewVideoMixer("m", db, []float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewVideoWriter("w", db, media.TypeCDAudio); err == nil {
		t.Error("audio type accepted by VideoWriter")
	}
	if _, err := NewAudioReader("a", db, media.TypeRawVideo30); err == nil {
		t.Error("video type accepted by AudioReader")
	}
	if _, err := NewAudioSink("a", db, media.TypeRawVideo30, media.AudioQualityCD, 0); err == nil {
		t.Error("video type accepted by AudioSink")
	}
	if _, err := NewMoveSource("m", app, render.Camera{}, nil, 5); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewMoveSource("m", app, render.Camera{}, func(int, render.Camera) render.Camera { return render.Camera{} }, 0); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestFig2ChainReadDecodeDisplay(t *testing.T) {
	// Fig. 2 top: read -> decode -> display over compressed storage.
	clip := motionClip(30)
	enc, err := codec.MPEG.Encode(clip)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := NewVideoReader("read", db, codec.TypeMPEGVideo)
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Bind(enc, "out"); err != nil {
		t.Fatal(err)
	}
	sd, err := codec.NewVideoStreamDecoder(32, 24, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewVideoDecoder("decode", db, codec.TypeMPEGVideo, sd)
	if err != nil {
		t.Fatal(err)
	}
	win := NewVideoWindow("display", app, media.VideoQuality{Width: 32, Height: 24, Depth: 8, FPS: 30}, 0)
	win.KeepFrames()

	g := activity.NewGraph("fig2")
	addAll(t, g, reader, dec, win)
	connect(t, g, reader, "out", dec, "in")
	connect(t, g, dec, "out", win, "in")
	runGraph(t, g)

	if win.FramesShown() != 30 {
		t.Fatalf("displayed %d frames, want 30", win.FramesShown())
	}
	// Streamed decode matches batch decode exactly.
	batch, err := codec.MPEG.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range win.Frames() {
		bf, _ := batch.Frame(i)
		if !f.Equal(bf) {
			t.Fatalf("frame %d differs from batch decode", i)
		}
	}
	if win.BytesShown() != 30*32*24 {
		t.Errorf("BytesShown = %d", win.BytesShown())
	}
}

func TestEncodeDecodeRoundTripThroughActivities(t *testing.T) {
	// digitizer -> encoder -> decoder -> window reproduces the digitized
	// frames within the codec's error bound.
	src := motionClip(20)
	gen := func(i int) *media.Frame { f, _ := src.Frame(i); return f }
	dig, err := NewVideoDigitizer("cam", db, gen, 20)
	if err != nil {
		t.Fatal(err)
	}
	se, err := codec.NewInterStreamEncoder(0, 5) // lossless
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewVideoEncoder("enc", db, codec.TypeMPEGVideo, se)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := codec.NewVideoStreamDecoder(32, 24, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewVideoDecoder("dec", app, codec.TypeMPEGVideo, sd)
	if err != nil {
		t.Fatal(err)
	}
	win := NewVideoWindow("win", app, media.VideoQuality{}, 0)
	win.KeepFrames()

	g := activity.NewGraph("roundtrip")
	addAll(t, g, dig, enc, dec, win)
	connect(t, g, dig, "out", enc, "in")
	connect(t, g, enc, "out", dec, "in")
	connect(t, g, dec, "out", win, "in")
	runGraph(t, g)

	if len(win.Frames()) != 20 {
		t.Fatalf("got %d frames", len(win.Frames()))
	}
	for i, f := range win.Frames() {
		orig, _ := src.Frame(i)
		if !f.Equal(orig) {
			t.Fatalf("frame %d not lossless through activity chain", i)
		}
	}
}

func TestVideoReaderCueAndStream(t *testing.T) {
	dm := device.NewManager()
	disk := device.NewDisk("disk0", 10_000_000, 10*media.MBPerSecond, avtime.Millisecond)
	if err := dm.Register(disk); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(dm)
	col := obs.NewCollector()
	st.SetSink(col)
	clip := motionClip(60)
	seg, err := st.Place(clip, "disk0")
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	reader, err := NewVideoReader("r", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Bind(clip, "out"); err != nil {
		t.Fatal(err)
	}
	reader.AttachStream(stream)
	if err := reader.Cue(avtime.Second); err != nil { // skip 30 frames
		t.Fatal(err)
	}
	win := NewVideoWindow("w", app, media.VideoQuality{}, avtime.Second)
	g := activity.NewGraph("g")
	addAll(t, g, reader, win)
	connect(t, g, reader, "out", win, "in")
	runGraph(t, g)

	if win.FramesShown() != 30 {
		t.Errorf("cued playback showed %d frames, want 30", win.FramesShown())
	}
	// Each 768-byte frame at 1 MB/s reserved = 768µs read latency; the
	// first frame also pays the 1ms startup seek.
	if got := win.Arrivals()[0]; got != 768*avtime.Microsecond+avtime.Millisecond {
		t.Errorf("first arrival = %v, want 1.768ms", got)
	}
	if got := win.Arrivals()[1] - 33333*avtime.Microsecond; got != 768*avtime.Microsecond {
		t.Errorf("steady-state read latency = %v, want 768µs", got)
	}
	if got := col.Snapshot().Counter("storage.read_bytes"); got != 30*768 {
		t.Errorf("stream read %d bytes", got)
	}
}

func TestVideoReaderWithoutBindingFails(t *testing.T) {
	reader, err := NewVideoReader("r", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	g := activity.NewGraph("g")
	addAll(t, g, reader)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(activity.RunConfig{Clock: sched.NewVirtualClock(0)}); err == nil ||
		!strings.Contains(err.Error(), "no bound value") {
		t.Errorf("unbound reader error = %v", err)
	}
}

func TestVideoTeeFansOut(t *testing.T) {
	clip := motionClip(10)
	reader, err := NewVideoReader("r", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Bind(clip, "out"); err != nil {
		t.Fatal(err)
	}
	tee, err := NewVideoTee("tee", db, 2)
	if err != nil {
		t.Fatal(err)
	}
	w1 := NewVideoWindow("w1", app, media.VideoQuality{}, 0)
	w2 := NewVideoWindow("w2", app, media.VideoQuality{}, 0)
	w1.KeepFrames()
	w2.KeepFrames()
	g := activity.NewGraph("g")
	addAll(t, g, reader, tee, w1, w2)
	connect(t, g, reader, "out", tee, "in")
	connect(t, g, tee, "out0", w1, "in")
	connect(t, g, tee, "out1", w2, "in")
	runGraph(t, g)
	if w1.FramesShown() != 10 || w2.FramesShown() != 10 {
		t.Fatalf("tee outputs: %d, %d", w1.FramesShown(), w2.FramesShown())
	}
	for i := range w1.Frames() {
		if !w1.Frames()[i].Equal(w2.Frames()[i]) {
			t.Fatal("tee outputs differ")
		}
	}
}

func TestVideoMixerBlends(t *testing.T) {
	// Two constant-shade clips mixed 1:1 yield the average shade.
	mk := func(shade byte) *media.VideoValue {
		v := media.NewVideoValue(media.TypeRawVideo30, 8, 8, 8)
		for i := 0; i < 10; i++ {
			f := media.NewFrame(8, 8, 8)
			for p := range f.Pix {
				f.Pix[p] = shade
			}
			if err := v.AppendFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	rA, err := NewVideoReader("a", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := rA.Bind(mk(100), "out"); err != nil {
		t.Fatal(err)
	}
	rB, err := NewVideoReader("b", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := rB.Bind(mk(200), "out"); err != nil {
		t.Fatal(err)
	}
	mix, err := NewVideoMixer("mix", db, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	win := NewVideoWindow("w", app, media.VideoQuality{}, 0)
	win.KeepFrames()
	g := activity.NewGraph("g")
	addAll(t, g, rA, rB, mix, win)
	connect(t, g, rA, "out", mix, "in0")
	connect(t, g, rB, "out", mix, "in1")
	connect(t, g, mix, "out", win, "in")
	runGraph(t, g)
	if win.FramesShown() != 10 {
		t.Fatalf("mixed %d frames", win.FramesShown())
	}
	if got := win.Frames()[0].Pix[0]; got != 150 {
		t.Errorf("1:1 mix of 100 and 200 = %d, want 150", got)
	}
}

func TestVideoMixerGeometryMismatch(t *testing.T) {
	mix, err := NewVideoMixer("mix", db, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tc := activity.NewTickContext(0, 0, avtime.Interval{})
	tc.SetIn("in0", &activity.Chunk{Payload: media.NewFrame(8, 8, 8)})
	tc.SetIn("in1", &activity.Chunk{Payload: media.NewFrame(4, 4, 8)})
	if err := mix.Tick(tc); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

// TestVideoTeeMixerTickAllocs pins the steady-state tick of the two
// fan-out/fan-in activities at zero allocations: the tee passes its
// input on, the mixer blends into the one scratch frame it reuses.
func TestVideoTeeMixerTickAllocs(t *testing.T) {
	tee, err := NewVideoTee("tee", db, 3)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := NewVideoMixer("mix", db, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	frame := media.NewFrame(8, 8, 8)
	for _, c := range []struct {
		act  activity.Activity
		ins  []string
		outs []string
		max  float64
	}{
		{tee, []string{"in"}, []string{"out0", "out1", "out2"}, 0},
		{mix, []string{"in0", "in2"}, []string{"out"}, 0},
	} {
		tc := activity.NewTickContext(0, 0, avtime.Interval{})
		seq := 0
		allocs := testing.AllocsPerRun(100, func() {
			seq++
			for _, p := range c.ins {
				tc.SetIn(p, &activity.Chunk{Seq: seq, Payload: frame})
			}
			if err := c.act.Tick(tc); err != nil {
				t.Fatal(err)
			}
			for _, p := range c.outs {
				if out := tc.Out(p); out == nil || out.Seq != seq {
					t.Fatalf("%s: tick %d put %v on %s", c.act.Name(), seq, out, p)
				}
			}
		})
		if allocs > c.max {
			t.Errorf("%s tick allocates %.1f times, want <= %.0f", c.act.Name(), allocs, c.max)
		}
	}
}

// mpegStream returns an MPEG encoding of a motion clip, the frames
// codec.MPEG.Decode makes of it, and a VideoDecoder for the stream.
func mpegStream(t *testing.T, frames int) (*codec.EncodedVideo, *media.VideoValue, *VideoDecoder) {
	t.Helper()
	enc, err := codec.MPEG.Encode(motionClip(frames))
	if err != nil {
		t.Fatal(err)
	}
	want, err := codec.MPEG.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := codec.NewVideoStreamDecoder(32, 24, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewVideoDecoder("decode", app, codec.TypeMPEGVideo, sd)
	if err != nil {
		t.Fatal(err)
	}
	return enc, want, dec
}

// decodeTick hands the decoder encoded frame i and returns what it
// emitted.
func decodeTick(t *testing.T, dec *VideoDecoder, tc *activity.TickContext, enc *codec.EncodedVideo, i int) *activity.Chunk {
	t.Helper()
	ef, err := enc.FrameData(i)
	if err != nil {
		t.Fatal(err)
	}
	tc.SetIn("in", &activity.Chunk{Seq: i, Payload: ef})
	if err := dec.Tick(tc); err != nil {
		t.Fatal(err)
	}
	out := tc.Out("out")
	if out == nil || out.Seq != i {
		t.Fatalf("decoder put %v on out for frame %d", out, i)
	}
	return out
}

// TestVideoWindowKeptFramesStayPut: a chunk is borrowed for one tick but
// its payload may be kept, so the frames a KeepFrames window retained
// must read the same after every later tick — nothing upstream may
// recycle a delivered frame.
func TestVideoWindowKeptFramesStayPut(t *testing.T) {
	const frames = 30
	enc, want, dec := mpegStream(t, frames)
	reader, err := NewVideoReader("read", db, codec.TypeMPEGVideo)
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Bind(enc, "out"); err != nil {
		t.Fatal(err)
	}
	win := NewVideoWindow("w", app, media.VideoQuality{}, 0)
	win.KeepFrames()
	g := activity.NewGraph("keep")
	addAll(t, g, reader, dec, win)
	connect(t, g, reader, "out", dec, "in")
	connect(t, g, dec, "out", win, "in")
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	run, err := g.Begin(activity.RunConfig{Clock: sched.NewVirtualClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		if done, err = run.Tick(); err != nil {
			t.Fatal(err)
		}
		run.Commit()
		for i, f := range win.Frames() {
			if wf, _ := want.Frame(i); !f.Equal(wf) {
				t.Fatalf("after tick %d: kept frame %d no longer reads as decoded", run.Ticks(), i)
			}
		}
	}
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(win.Frames()) != frames {
		t.Fatalf("window kept %d frames, want %d", len(win.Frames()), frames)
	}
}

// TestVideoDecoderTickAllocs pins the decoder's steady-state tick at zero
// allocations: it reconstructs into the stream decoder's two frames.
func TestVideoDecoderTickAllocs(t *testing.T) {
	enc, _, dec := mpegStream(t, 30)
	tc := activity.NewTickContext(0, 0, avtime.Interval{})
	i := 0
	tick := func() {
		decodeTick(t, dec, tc, enc, i%enc.NumFrames())
		i++
	}
	tick()
	tick()
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("decoder tick allocates %.2f times, want 0", allocs)
	}
}

// TestVideoWriterKeptFramesStayPut: a writer recording a decoder's output
// — appended to a bound raw value, or collected without one — keeps
// every frame as decoded, though the decoder reuses its frames.
func TestVideoWriterKeptFramesStayPut(t *testing.T) {
	const frames = 30
	for _, bound := range []bool{true, false} {
		enc, want, dec := mpegStream(t, frames)
		reader, err := NewVideoReader("read", db, codec.TypeMPEGVideo)
		if err != nil {
			t.Fatal(err)
		}
		if err := reader.Bind(enc, "out"); err != nil {
			t.Fatal(err)
		}
		wr, err := NewVideoWriter("rec", app, media.TypeRawVideo30)
		if err != nil {
			t.Fatal(err)
		}
		dst := media.NewVideoValue(media.TypeRawVideo30, 32, 24, 8)
		if bound {
			if err := wr.Bind(dst, "in"); err != nil {
				t.Fatal(err)
			}
		}
		g := activity.NewGraph("record")
		addAll(t, g, reader, dec, wr)
		connect(t, g, reader, "out", dec, "in")
		connect(t, g, dec, "out", wr, "in")
		runGraph(t, g)
		if !bound {
			for _, el := range wr.Collected() {
				if err := dst.AppendFrame(el.(*media.Frame)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if dst.NumFrames() != frames {
			t.Fatalf("bound=%v: writer recorded %d frames, want %d", bound, dst.NumFrames(), frames)
		}
		for i := 0; i < frames; i++ {
			got, _ := dst.Frame(i)
			if wf, _ := want.Frame(i); !got.Equal(wf) {
				t.Fatalf("bound=%v: recorded frame %d no longer reads as decoded", bound, i)
			}
		}
	}
}

// TestRenderTextureStaysPut: the render activity textures every frame it
// renders with the last video frame it received, so that frame must read
// the same however often the decoder that produced it has run since.
func TestRenderTextureStaysPut(t *testing.T) {
	const shown = 5
	enc, want, dec := mpegStream(t, 10)
	ra := NewRenderActivity("render", app, render.NewRenderer(render.Museum(), 48, 36))
	dtc := activity.NewTickContext(0, 0, avtime.Interval{})
	for i := 0; i <= shown+2; i++ {
		out := decodeTick(t, dec, dtc, enc, i)
		if i == shown {
			rtc := activity.NewTickContext(0, 0, avtime.Interval{})
			rtc.SetIn("video", out)
			if err := ra.Tick(rtc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if wf, _ := want.Frame(shown); !ra.lastTex.Equal(wf) {
		t.Fatalf("texture no longer reads as decoded frame %d after two more decoder ticks", shown)
	}
}

func TestVideoWindowQualityEnforced(t *testing.T) {
	win := NewVideoWindow("w", app, media.VideoQuality{Width: 320, Height: 240, Depth: 8, FPS: 30}, 0)
	tc := activity.NewTickContext(0, 0, avtime.Interval{})
	tc.SetIn("in", &activity.Chunk{Payload: media.NewFrame(8, 8, 8)})
	if err := win.Tick(tc); err == nil {
		t.Error("wrong-geometry frame accepted")
	}
}

func TestVideoWriterRecordsIntoBoundValue(t *testing.T) {
	// digitizer -> writer: recording a live source into a stored value.
	gen := func(i int) *media.Frame {
		f := media.NewFrame(4, 4, 8)
		f.Pix[0] = byte(i)
		return f
	}
	dig, err := NewVideoDigitizer("cam", db, gen, 15)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := NewVideoWriter("rec", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	dst := media.NewVideoValue(media.TypeRawVideo30, 4, 4, 8)
	if err := wr.Bind(dst, "in"); err != nil {
		t.Fatal(err)
	}
	g := activity.NewGraph("rec")
	addAll(t, g, dig, wr)
	connect(t, g, dig, "out", wr, "in")
	runGraph(t, g)
	if dst.NumFrames() != 15 {
		t.Fatalf("recorded %d frames", dst.NumFrames())
	}
	f, _ := dst.Frame(7)
	if f.Pix[0] != 7 {
		t.Error("recorded content wrong")
	}
}

func TestAudioPipelineSampleAccurate(t *testing.T) {
	speech, err := synth.Speech(media.AudioQualityCD, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := NewAudioReader("ar", db, media.TypeCDAudio)
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Bind(speech, "out"); err != nil {
		t.Fatal(err)
	}
	sink, err := NewAudioSink("as", app, media.TypeCDAudio, media.AudioQualityCD, avtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	g := activity.NewGraph("audio")
	addAll(t, g, reader, sink)
	connect(t, g, reader, "out", sink, "in")
	runGraph(t, g)
	if sink.SamplesPlayed() != 44100 {
		t.Errorf("played %d samples, want 44100", sink.SamplesPlayed())
	}
	if len(sink.Arrivals()) == 0 {
		t.Error("no arrivals recorded")
	}
}

// TestAudioReaderTickAllocs pins the reader's steady-state tick at zero
// allocations: it emits one block, rewritten every tick, over samples
// the value already holds.  Each tick's block covers exactly the next
// samples, and the block is the same one tick after tick.
func TestAudioReaderTickAllocs(t *testing.T) {
	speech, err := synth.Speech(media.AudioQualityVoice, 10.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := NewAudioReader("ar", db, media.TypeVoiceAudio)
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Bind(speech, "out"); err != nil {
		t.Fatal(err)
	}
	if err := reader.Start(); err != nil {
		t.Fatal(err)
	}
	unit := avtime.RateVideo30.UnitDuration()
	tc := activity.NewTickContext(0, 0, avtime.Interval{Dur: unit})
	var first *media.AudioBlock
	next := avtime.ObjectTime(0)
	tick := func() {
		if err := reader.Tick(tc); err != nil {
			t.Fatal(err)
		}
		out := tc.Out("out")
		b, ok := out.Payload.(*media.AudioBlock)
		if !ok || b.Start != next || b.NumFrames() == 0 {
			t.Fatalf("tick at %v emitted %+v, want a block from sample %d", tc.Now, out.Payload, next)
		}
		if first == nil {
			first = b
		} else if b != first {
			t.Fatal("reader emitted a new block")
		}
		next += avtime.ObjectTime(b.NumFrames())
		tc.Now += unit
		tc.Interval.Start += unit
		tc.Seq++
	}
	tick()
	tick()
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("audio reader tick allocates %.2f times, want 0", allocs)
	}
}

func TestAudioReaderCue(t *testing.T) {
	speech, err := synth.Speech(media.AudioQualityVoice, 2.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := NewAudioReader("ar", db, media.TypeVoiceAudio)
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Bind(speech, "out"); err != nil {
		t.Fatal(err)
	}
	if err := reader.Cue(avtime.Second); err != nil {
		t.Fatal(err)
	}
	sink, err := NewAudioSink("as", app, media.TypeVoiceAudio, media.AudioQualityVoice, avtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	g := activity.NewGraph("g")
	addAll(t, g, reader, sink)
	connect(t, g, reader, "out", sink, "in")
	runGraph(t, g)
	if sink.SamplesPlayed() != 8000 { // second half only
		t.Errorf("played %d samples, want 8000", sink.SamplesPlayed())
	}
}

func TestSubtitlePipeline(t *testing.T) {
	subs, err := synth.Subtitles([]string{"hello", "world"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	reader := NewSubtitleReader("sr", db)
	if err := reader.Bind(subs, "out"); err != nil {
		t.Fatal(err)
	}
	sink := NewSubtitleSink("ss", app)
	g := activity.NewGraph("g")
	addAll(t, g, reader, sink)
	connect(t, g, reader, "out", sink, "in")
	runGraph(t, g)
	var texts []string
	for _, c := range sink.Cues() {
		texts = append(texts, c.Text)
	}
	// The one-tick gap between cues is invisible at the 30Hz graph rate,
	// so the visible changes are hello -> world.
	want := []string{"hello", "world"}
	if len(texts) != len(want) {
		t.Fatalf("cue changes = %q", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("cue %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestSubtitleGapEmitsBlank(t *testing.T) {
	// A gap wider than a graph tick arrives as an empty cue change.
	subs := media.NewTextStreamValue(3000)
	if err := subs.AddCue(media.Cue{At: 0, Dur: 1000, Text: "first"}); err != nil {
		t.Fatal(err)
	}
	if err := subs.AddCue(media.Cue{At: 2000, Dur: 1000, Text: "second"}); err != nil {
		t.Fatal(err)
	}
	reader := NewSubtitleReader("sr", db)
	if err := reader.Bind(subs, "out"); err != nil {
		t.Fatal(err)
	}
	sink := NewSubtitleSink("ss", app)
	g := activity.NewGraph("g")
	addAll(t, g, reader, sink)
	connect(t, g, reader, "out", sink, "in")
	runGraph(t, g)
	var texts []string
	for _, c := range sink.Cues() {
		texts = append(texts, c.Text)
	}
	want := []string{"first", "", "second"}
	if len(texts) != len(want) {
		t.Fatalf("cue changes = %q", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("cue %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestVirtualWorldPipeline(t *testing.T) {
	// Fig. 4 top path: move + video source -> render (client side) ->
	// window.
	world := render.Museum()
	r := render.NewRenderer(world, 48, 36)
	mv, err := NewMoveSource("move", app, render.Camera{X: 8, Y: 6, Angle: 0}, OrbitPolicy(world, 0.1, 0.05), 20)
	if err != nil {
		t.Fatal(err)
	}
	vid, err := NewVideoReader("videosrc", app, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := vid.Bind(motionClip(20), "out"); err != nil {
		t.Fatal(err)
	}
	ra := NewRenderActivity("render", app, r)
	win := NewVideoWindow("view", app, media.VideoQuality{Width: 48, Height: 36, Depth: 8, FPS: 30}, 0)
	win.KeepFrames()

	g := activity.NewGraph("vworld")
	addAll(t, g, mv, vid, ra, win)
	connect(t, g, mv, "out", ra, "move")
	connect(t, g, vid, "out", ra, "video")
	connect(t, g, ra, "out", win, "in")
	runGraph(t, g)

	if win.FramesShown() != 20 {
		t.Fatalf("rendered %d frames, want 20", win.FramesShown())
	}
	// Moving camera makes consecutive frames differ.
	distinct := 0
	fs := win.Frames()
	for i := 1; i < len(fs); i++ {
		if !fs[i].Equal(fs[i-1]) {
			distinct++
		}
	}
	if distinct < 15 {
		t.Errorf("only %d distinct consecutive frames", distinct)
	}
}

func TestMultiSourceSinkSealing(t *testing.T) {
	ms := NewMultiSource("dbSource", db)
	if err := SealMultiSource(ms); err == nil {
		t.Error("empty MultiSource sealed")
	}
	v, err := NewVideoReader("videoTrack", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Install(v); err != nil {
		t.Fatal(err)
	}
	if err := SealMultiSource(ms); err != nil {
		t.Fatal(err)
	}
	if _, ok := ms.Port("out"); !ok {
		t.Error("mux out not exported")
	}

	sink := NewMultiSink("appSink", app)
	if err := SealMultiSink(sink); err == nil {
		t.Error("empty MultiSink sealed")
	}
	w := NewVideoWindow("videoTrack", app, media.VideoQuality{}, 0)
	if err := sink.Install(w); err != nil {
		t.Fatal(err)
	}
	if err := SealMultiSink(sink); err != nil {
		t.Fatal(err)
	}
	if sink.SyncController() == nil {
		t.Error("MultiSink without sync")
	}
	// Sealing a sink whose child lacks an in port fails.
	ms2 := NewMultiSource("x", db)
	wOnly := NewVideoWindow("w", db, media.VideoQuality{}, 0)
	if err := ms2.Install(wOnly); err != nil {
		t.Fatal(err)
	}
	if err := SealMultiSource(ms2); err == nil {
		t.Error("MultiSource sealed over sink child")
	}
	sink2 := NewMultiSink("y", db)
	rOnly, _ := NewVideoReader("r", db, media.TypeRawVideo30)
	if err := sink2.Install(rOnly); err != nil {
		t.Fatal(err)
	}
	if err := SealMultiSink(sink2); err == nil {
		t.Error("MultiSink sealed over source child")
	}
}

func TestNewscastSynchronizedPlayback(t *testing.T) {
	// The §4.3 program: MultiSource{video,audio} -> one connection ->
	// MultiSink{window,dac}, with jittery per-track latencies.
	frames := 60
	clip := motionClip(frames)
	eng, err := synth.Speech(media.AudioQualityVoice, 2.0, 3)
	if err != nil {
		t.Fatal(err)
	}

	ms := NewMultiSource("dbSource", db)
	vr, err := NewVideoReader("video", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	vr.SetLatency(sched.NewLatency(12*avtime.Millisecond, 6*avtime.Millisecond, 21))
	if err := vr.Bind(clip, "out"); err != nil {
		t.Fatal(err)
	}
	ar, err := NewAudioReader("audio", db, media.TypeVoiceAudio)
	if err != nil {
		t.Fatal(err)
	}
	ar.SetLatency(sched.NewLatency(2*avtime.Millisecond, avtime.Millisecond, 22))
	if err := ar.Bind(eng, "out"); err != nil {
		t.Fatal(err)
	}
	if err := ms.Install(vr); err != nil {
		t.Fatal(err)
	}
	if err := ms.Install(ar); err != nil {
		t.Fatal(err)
	}
	if err := SealMultiSource(ms); err != nil {
		t.Fatal(err)
	}

	sink := NewMultiSink("appSink", app)
	win := NewVideoWindow("video", app, media.VideoQuality{}, 50*avtime.Millisecond)
	dac, err := NewAudioSink("audio", app, media.TypeVoiceAudio, media.AudioQualityVoice, 50*avtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Install(win); err != nil {
		t.Fatal(err)
	}
	if err := sink.Install(dac); err != nil {
		t.Fatal(err)
	}
	if err := SealMultiSink(sink); err != nil {
		t.Fatal(err)
	}

	g := activity.NewGraph("newscast")
	addAll(t, g, ms, sink)
	connect(t, g, ms, "out", sink, "in")
	runGraph(t, g)

	if win.FramesShown() != frames {
		t.Errorf("video: %d frames, want %d", win.FramesShown(), frames)
	}
	if dac.SamplesPlayed() != 16000 {
		t.Errorf("audio: %d samples, want 16000", dac.SamplesPlayed())
	}
	// Synchronization holds: steady-state skew is bounded well below the
	// raw latency difference (~10ms).
	va, aa := win.Arrivals(), dac.Arrivals()
	n := min(len(va), len(aa))
	var worst avtime.WorldTime
	for i := 20; i < n; i++ {
		s := va[i] - aa[i]
		if s < 0 {
			s = -s
		}
		if s > worst {
			worst = s
		}
	}
	if worst > 8*avtime.Millisecond {
		t.Errorf("steady-state skew %v too large", worst)
	}
}

func TestLiveCaptureWhileViewing(t *testing.T) {
	// The paper's live-source case: a camera feed cannot be compressed
	// ahead of time.  The digitizer's raw stream is teed: one branch is
	// encoded and recorded, the other viewed live.
	src := motionClip(40)
	gen := func(i int) *media.Frame { f, _ := src.Frame(i); return f }
	camera, err := NewVideoDigitizer("camera", db, gen, 40)
	if err != nil {
		t.Fatal(err)
	}
	tee, err := NewVideoTee("tee", db, 2)
	if err != nil {
		t.Fatal(err)
	}
	se, err := codec.NewInterStreamEncoder(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewVideoEncoder("enc", db, codec.TypeMPEGVideo, se)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewVideoWriter("rec", db, codec.TypeMPEGVideo)
	if err != nil {
		t.Fatal(err)
	}
	monitorWin := NewVideoWindow("monitor", db, media.VideoQuality{}, avtime.Second)

	g := activity.NewGraph("live")
	addAll(t, g, camera, tee, enc, rec, monitorWin)
	connect(t, g, camera, "out", tee, "in")
	connect(t, g, tee, "out0", enc, "in")
	connect(t, g, enc, "out", rec, "in")
	connect(t, g, tee, "out1", monitorWin, "in")
	runGraph(t, g)

	if monitorWin.FramesShown() != 40 {
		t.Errorf("monitor showed %d frames", monitorWin.FramesShown())
	}
	collected := rec.Collected()
	if len(collected) != 40 {
		t.Fatalf("recorded %d encoded frames", len(collected))
	}
	// The recording decodes back to the captured material.
	sd, err := codec.NewVideoStreamDecoder(32, 24, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, el := range collected {
		f, err := sd.DecodeFrame(el.(*codec.EncodedFrame))
		if err != nil {
			t.Fatal(err)
		}
		orig, _ := src.Frame(i)
		d := 0
		for p := range f.Pix {
			e := int(f.Pix[p]) - int(orig.Pix[p])
			if e < 0 {
				e = -e
			}
			if e > d {
				d = e
			}
		}
		if d > 2 {
			t.Fatalf("recorded frame %d error %d", i, d)
		}
	}
}

func TestCCIR25fpsPacing(t *testing.T) {
	// A CCIR 601 (25 fps) value plays at its own rate: the graph ticks at
	// 25 Hz, so 50 frames span exactly two seconds of world time.
	v := media.NewVideoValue(media.TypeCCIRVideo, 16, 12, 8)
	for i := 0; i < 50; i++ {
		if err := v.AppendFrame(media.NewFrame(16, 12, 8)); err != nil {
			t.Fatal(err)
		}
	}
	reader, err := NewVideoReader("ccir", db, media.TypeCCIRVideo)
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Bind(v, "out"); err != nil {
		t.Fatal(err)
	}
	// The VideoWindow port is typed raw30, so sink the CCIR stream into a
	// CCIR-typed writer.
	wr, err := NewVideoWriter("w", app, media.TypeCCIRVideo)
	if err != nil {
		t.Fatal(err)
	}
	dst := media.NewVideoValue(media.TypeCCIRVideo, 16, 12, 8)
	if err := wr.Bind(dst, "in"); err != nil {
		t.Fatal(err)
	}
	g := activity.NewGraph("ccir")
	addAll(t, g, reader, wr)
	connect(t, g, reader, "out", wr, "in")
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	clock := sched.NewVirtualClock(0)
	stats, err := g.Run(activity.RunConfig{Clock: clock, Rate: avtime.RateVideo25})
	if err != nil {
		t.Fatal(err)
	}
	if dst.NumFrames() != 50 {
		t.Errorf("recorded %d frames", dst.NumFrames())
	}
	if stats.Ticks != 50 {
		t.Errorf("ticks = %d", stats.Ticks)
	}
	if clock.Now() != 2*avtime.Second {
		t.Errorf("50 frames at 25fps took %v, want 2s", clock.Now())
	}
}

func TestTimelinePlacementHonoredInPlayback(t *testing.T) {
	// Fig. 1 semantics during playback: the audio track is Translated to
	// start 1s into the 2s video, so the first audio block arrives around
	// world time 1s and exactly 1s of audio plays.
	video := motionClip(60) // 2s
	narration, err := synth.Speech(media.AudioQualityVoice, 1.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	narration.Translate(avtime.Second) // [1s, 2s)

	ms := NewMultiSource("dbSource", db)
	vr, err := NewVideoReader("video", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := vr.Bind(video, "out"); err != nil {
		t.Fatal(err)
	}
	ar, err := NewAudioReader("audio", db, media.TypeVoiceAudio)
	if err != nil {
		t.Fatal(err)
	}
	if err := ar.Bind(narration, "out"); err != nil {
		t.Fatal(err)
	}
	if err := ms.Install(vr); err != nil {
		t.Fatal(err)
	}
	if err := ms.Install(ar); err != nil {
		t.Fatal(err)
	}
	if err := SealMultiSource(ms); err != nil {
		t.Fatal(err)
	}

	sink := NewMultiSink("appSink", app)
	win := NewVideoWindow("video", app, media.VideoQuality{}, avtime.Second)
	dac, err := NewAudioSink("audio", app, media.TypeVoiceAudio, media.AudioQualityVoice, avtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Install(win); err != nil {
		t.Fatal(err)
	}
	if err := sink.Install(dac); err != nil {
		t.Fatal(err)
	}
	if err := SealMultiSink(sink); err != nil {
		t.Fatal(err)
	}

	g := activity.NewGraph("timeline")
	addAll(t, g, ms, sink)
	connect(t, g, ms, "out", sink, "in")
	runGraph(t, g)

	if win.FramesShown() != 60 {
		t.Errorf("video frames = %d", win.FramesShown())
	}
	if dac.SamplesPlayed() != 8000 {
		t.Errorf("audio samples = %d, want 8000 (1s)", dac.SamplesPlayed())
	}
	if len(dac.Arrivals()) == 0 {
		t.Fatal("no audio arrived")
	}
	first := dac.Arrivals()[0]
	if first < avtime.Second || first > 1100*avtime.Millisecond {
		t.Errorf("first audio arrival = %v, want ~1s", first)
	}
}

func TestVideoReaderTimelineOffset(t *testing.T) {
	clip := motionClip(30)
	clip.Translate(500 * avtime.Millisecond)
	reader, err := NewVideoReader("r", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Bind(clip, "out"); err != nil {
		t.Fatal(err)
	}
	win := NewVideoWindow("w", app, media.VideoQuality{}, avtime.Second)
	g := activity.NewGraph("g")
	addAll(t, g, reader, win)
	connect(t, g, reader, "out", win, "in")
	runGraph(t, g)
	if win.FramesShown() != 30 {
		t.Errorf("frames = %d", win.FramesShown())
	}
	if first := win.Arrivals()[0]; first < 500*avtime.Millisecond {
		t.Errorf("first frame at %v, before the 0.5s offset", first)
	}
}

func TestSubtitleTimelineOffset(t *testing.T) {
	subs, err := synth.Subtitles([]string{"late"}, 500)
	if err != nil {
		t.Fatal(err)
	}
	subs.Translate(avtime.Second)
	reader := NewSubtitleReader("sr", db)
	if err := reader.Bind(subs, "out"); err != nil {
		t.Fatal(err)
	}
	sink := NewSubtitleSink("ss", app)
	g := activity.NewGraph("g")
	addAll(t, g, reader, sink)
	connect(t, g, reader, "out", sink, "in")
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Run(activity.RunConfig{Clock: sched.NewVirtualClock(0), MaxTicks: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.Cues()) != 1 || sink.Cues()[0].Text != "late" {
		t.Fatalf("cues = %v", sink.Cues())
	}
	if stats.Ticks < 30 {
		t.Errorf("stream ended before the offset elapsed: %d ticks", stats.Ticks)
	}
}

// TestGraphRunTickAllocs pins one tick of the commonest graph — reader
// → window over a bound value, every vod_zipf client's — at zero
// allocations.  The run plan keeps every tick context, slot and staging
// slice from one tick to the next, and chunks travel by value into those
// slots, so neither the reader's chunk nor the copy that crosses the
// connection touches the heap; the window's arrival log grows by
// amortised doubling, which averages out below one allocation per tick.
func TestGraphRunTickAllocs(t *testing.T) {
	reader, err := NewVideoReader("r", db, media.TypeRawVideo30)
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Bind(motionClip(600), "out"); err != nil {
		t.Fatal(err)
	}
	win := NewVideoWindow("w", app, media.VideoQuality{}, avtime.Second)
	g := activity.NewGraph("g")
	addAll(t, g, reader, win)
	connect(t, g, reader, "out", win, "in")
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	run, err := g.Begin(activity.RunConfig{Clock: sched.NewVirtualClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	tick := func() {
		if done, err := run.Tick(); err != nil || done {
			t.Fatalf("tick: done=%v err=%v", done, err)
		}
		run.Commit()
	}
	for i := 0; i < 20; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(400, tick); allocs != 0 {
		t.Errorf("reader → window tick allocates %.2f times, want 0", allocs)
	}
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	if win.FramesShown() != 20+401 {
		t.Errorf("window showed %d frames, want %d", win.FramesShown(), 20+401)
	}
}
