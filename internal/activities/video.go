// Package activities provides the concrete activity classes of the
// paper's Table 1 and their audio and text counterparts:
//
//	activity         kind         in            out
//	VideoDigitizer   source       (camera)      raw
//	VideoReader      source       (storage)     raw or compressed
//	VideoEncoder     transformer  raw           compressed
//	VideoDecoder     transformer  compressed    raw
//	VideoTee         transformer  raw           raw × n
//	VideoMixer       transformer  raw × n       raw
//	VideoWindow      sink         raw           (display)
//	VideoWriter      sink         raw           (storage)
//
// plus AudioReader, AudioSink, SubtitleReader, SubtitleSink, the
// virtual-world MoveSource and RenderActivity, and the synchronized
// MultiSource/MultiSink composites of §4.3.
package activities

import (
	"fmt"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/codec"
	"avdb/internal/media"
	"avdb/internal/sched"
	"avdb/internal/storage"
)

// VideoReader is Table 1's "video reader": a source producing a stored
// video value, raw or compressed according to the port type it is
// constructed with.  When attached to a storage stream, every frame's
// delivery pays the device read time.
//
// The reader honors the bound value's timeline placement: a value
// Translated to start at world time t produces nothing until t has
// elapsed since the stream started — this is how "temporal composition
// determines when operations on AV values take place" (§4.2).
type VideoReader struct {
	*activity.Base
	pos     int
	started avtime.WorldTime
	haveT0  bool
	stream  *storage.Stream
}

// NewVideoReader returns a reader whose out port carries the given video
// type.
func NewVideoReader(name string, loc activity.Location, typ *media.Type) (*VideoReader, error) {
	if typ.Kind != media.KindVideo {
		return nil, fmt.Errorf("activities: VideoReader needs a video type, got %s", typ.Name)
	}
	r := &VideoReader{Base: activity.NewBase(name, "VideoReader", loc)}
	r.AddPort("out", activity.Out, typ)
	r.DeclareEvents(activity.EventEachFrame, activity.EventLastFrame,
		activity.EventDegraded, activity.EventRestored)
	return r, nil
}

// AttachStream ties frame delivery to a bandwidth-reserved storage
// stream.
func (r *VideoReader) AttachStream(s *storage.Stream) { r.stream = s }

// Degrade rebinds the reader mid-stream to a cheaper representation of
// its value — the delivery half of a quality renegotiation.  The
// playback position is remapped proportionally so presentation resumes
// at the equivalent moment of the new representation.  It must run on
// the graph-runner goroutine (e.g. inside an event handler), where no
// Tick is concurrently in flight.
func (r *VideoReader) Degrade(v media.Value, port string) error {
	old, ok := r.Binding(port)
	if !ok {
		return fmt.Errorf("activities: %s has no binding on %q to degrade", r.Name(), port)
	}
	if err := r.Bind(v, port); err != nil {
		return err
	}
	if oldN, newN := old.NumElements(), v.NumElements(); oldN > 0 && oldN != newN {
		r.pos = r.pos * newN / oldN
		if r.pos > newN {
			r.pos = newN
		}
	}
	if r.stream != nil {
		// The attached stream keeps serving the placed segment; a
		// smaller representation means scheduled reads can skip the
		// bytes the degraded quality ignores.
		r.stream.SetPayloadBytes(v.Size())
	}
	return nil
}

// Tick implements activity.Activity.
func (r *VideoReader) Tick(tc *activity.TickContext) error {
	v, ok := r.Binding("out")
	if !ok {
		return fmt.Errorf("activities: %s has no bound value", r.Name())
	}
	if !r.haveT0 {
		r.started = tc.Now
		r.haveT0 = true
		if r.CuePoint() > 0 {
			r.pos = int(v.Type().Rate.UnitsIn(r.CuePoint()))
		}
	}
	// Honor the value's timeline placement: wait out its start offset.
	if tc.Now-r.started < v.Start() {
		return nil
	}
	if r.pos >= v.NumElements() {
		r.MarkDone()
		return nil
	}
	el, err := v.ElementAt(avtime.ObjectTime(r.pos))
	if err != nil {
		return err
	}
	c := &activity.Chunk{Seq: r.pos, At: tc.Now, Arrived: tc.Now, Payload: el}
	if r.stream != nil {
		// The frame's device read is charged to the timeline through the
		// chunk-indexed path, so a store cache policy can serve
		// prefetched frames without device time; with no policy it costs
		// exactly a plain read.  The read is tagged with the tick's
		// service round and the frame's playback deadline (its
		// presentation tick), so a round-scheduling store can batch it
		// SCAN-EDF with the other streams of the same round — under the
		// multi-session engine, that round spans every session ticked in
		// the same engine step.
		dt, err := r.stream.ReadChunkTimeAt(r.pos, el.Size(), tc.Round, tc.Now, tc.Now)
		if err != nil {
			return err
		}
		c.Arrived += dt
	}
	tc.Emit("out", c)
	r.Emit(activity.EventInfo{Event: activity.EventEachFrame, At: tc.Now, Seq: r.pos})
	r.pos++
	if r.pos >= v.NumElements() {
		r.Emit(activity.EventInfo{Event: activity.EventLastFrame, At: tc.Now, Seq: r.pos - 1})
		r.MarkDone()
	}
	return nil
}

// FrameGenerator produces live frames for a digitizer, e.g. from a
// synthetic camera.
type FrameGenerator func(i int) *media.Frame

// VideoDigitizer is Table 1's "video digitizer": a live source producing
// raw frames from a capture device.  Live sources have no natural end;
// maxFrames <= 0 runs until stopped.
type VideoDigitizer struct {
	*activity.Base
	gen       FrameGenerator
	maxFrames int
	pos       int
}

// NewVideoDigitizer returns a digitizer over the given frame generator.
func NewVideoDigitizer(name string, loc activity.Location, gen FrameGenerator, maxFrames int) (*VideoDigitizer, error) {
	if gen == nil {
		return nil, fmt.Errorf("activities: VideoDigitizer needs a frame generator")
	}
	d := &VideoDigitizer{Base: activity.NewBase(name, "VideoDigitizer", loc), gen: gen, maxFrames: maxFrames}
	d.AddPort("out", activity.Out, media.TypeRawVideo30)
	d.DeclareEvents(activity.EventEachFrame, activity.EventLastFrame)
	return d, nil
}

// Tick implements activity.Activity.
func (d *VideoDigitizer) Tick(tc *activity.TickContext) error {
	if d.maxFrames > 0 && d.pos >= d.maxFrames {
		d.MarkDone()
		return nil
	}
	f := d.gen(d.pos)
	tc.Emit("out", &activity.Chunk{Seq: d.pos, At: tc.Now, Arrived: tc.Now, Payload: f})
	d.Emit(activity.EventInfo{Event: activity.EventEachFrame, At: tc.Now, Seq: d.pos})
	d.pos++
	if d.maxFrames > 0 && d.pos >= d.maxFrames {
		d.Emit(activity.EventInfo{Event: activity.EventLastFrame, At: tc.Now, Seq: d.pos - 1})
		d.MarkDone()
	}
	return nil
}

// VideoEncoder is Table 1's "video encoder": raw frames in, compressed
// frames out, using a streaming intra- or inter-frame encoder.
type VideoEncoder struct {
	*activity.Base
	enc *codec.VideoStreamEncoder
}

// NewVideoEncoder returns an encoder emitting the given encoded type.
func NewVideoEncoder(name string, loc activity.Location, outType *media.Type, enc *codec.VideoStreamEncoder) (*VideoEncoder, error) {
	if !outType.Compressed || outType.Kind != media.KindVideo {
		return nil, fmt.Errorf("activities: VideoEncoder needs a compressed video type, got %s", outType.Name)
	}
	e := &VideoEncoder{Base: activity.NewBase(name, "VideoEncoder", loc), enc: enc}
	e.AddPort("in", activity.In, media.TypeRawVideo30)
	e.AddPort("out", activity.Out, outType)
	return e, nil
}

// Tick implements activity.Activity.
func (e *VideoEncoder) Tick(tc *activity.TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	f, ok := in.Payload.(*media.Frame)
	if !ok {
		return fmt.Errorf("activities: %s received %T, want raw frame", e.Name(), in.Payload)
	}
	ef, err := e.enc.EncodeFrame(f)
	if err != nil {
		return err
	}
	out := *in
	out.Payload = ef
	tc.Emit("out", &out)
	return nil
}

// VideoDecoder is Table 1's "video decoder": compressed frames in, raw
// frames out.  The frames are the stream decoder's scratch frames.
type VideoDecoder struct {
	*activity.Base
	dec *codec.VideoStreamDecoder
}

// NewVideoDecoder returns a decoder for streams of the given encoded
// type.
func NewVideoDecoder(name string, loc activity.Location, inType *media.Type, dec *codec.VideoStreamDecoder) (*VideoDecoder, error) {
	if !inType.Compressed || inType.Kind != media.KindVideo {
		return nil, fmt.Errorf("activities: VideoDecoder needs a compressed video type, got %s", inType.Name)
	}
	d := &VideoDecoder{Base: activity.NewBase(name, "VideoDecoder", loc), dec: dec}
	d.AddPort("in", activity.In, inType)
	d.AddPort("out", activity.Out, media.TypeRawVideo30)
	return d, nil
}

// Tick implements activity.Activity.
func (d *VideoDecoder) Tick(tc *activity.TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	ef, ok := in.Payload.(*codec.EncodedFrame)
	if !ok {
		return fmt.Errorf("activities: %s received %T, want encoded frame", d.Name(), in.Payload)
	}
	f, err := d.dec.Decode(ef)
	if err != nil {
		return err
	}
	out := *in
	out.Payload = f
	tc.Emit("out", &out)
	return nil
}

// VideoTee is Table 1's "video tee": one raw stream in, n copies out on
// ports "out0".."out{n-1}".
type VideoTee struct {
	*activity.Base
	outs []string // out port names
}

// NewVideoTee returns a tee with n outputs.
func NewVideoTee(name string, loc activity.Location, n int) (*VideoTee, error) {
	if n < 2 {
		return nil, fmt.Errorf("activities: a tee needs at least 2 outputs, got %d", n)
	}
	t := &VideoTee{Base: activity.NewBase(name, "VideoTee", loc), outs: portNames("out", n)}
	t.AddPort("in", activity.In, media.TypeRawVideo30)
	for _, p := range t.outs {
		t.AddPort(p, activity.Out, media.TypeRawVideo30)
	}
	return t, nil
}

// Tick implements activity.Activity.
func (t *VideoTee) Tick(tc *activity.TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	for _, p := range t.outs {
		tc.Emit(p, in)
	}
	return nil
}

// portNames returns prefix0 .. prefix{n-1}.
func portNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

// VideoMixer is Table 1's "video mixer": n raw streams in, one blended
// raw stream out — the operation behind "video mixing is commonly used
// during video editing".  Inputs are averaged with the configured
// weights; absent inputs are skipped that tick.  The blend is one scratch
// frame, rewritten every tick.
type VideoMixer struct {
	*activity.Base
	weights []float64
	ins     []string // in port names, one per weight

	// Per-tick scratch, reused tick after tick.
	frames  []*media.Frame
	present []float64    // the weights of the inputs present
	out     *media.Frame // the blend, a scratch frame
}

// NewVideoMixer returns a mixer with one in port per weight
// ("in0".."in{n-1}").  Weights are normalized over the inputs present
// each tick.
func NewVideoMixer(name string, loc activity.Location, weights []float64) (*VideoMixer, error) {
	if len(weights) < 2 {
		return nil, fmt.Errorf("activities: a mixer needs at least 2 inputs, got %d", len(weights))
	}
	for _, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("activities: mixer weights must be positive, got %v", w)
		}
	}
	m := &VideoMixer{
		Base:    activity.NewBase(name, "VideoMixer", loc),
		weights: append([]float64(nil), weights...),
		ins:     portNames("in", len(weights)),
		frames:  make([]*media.Frame, 0, len(weights)),
		present: make([]float64, 0, len(weights)),
	}
	for _, p := range m.ins {
		m.AddPort(p, activity.In, media.TypeRawVideo30)
	}
	m.AddPort("out", activity.Out, media.TypeRawVideo30)
	return m, nil
}

// Tick implements activity.Activity.
func (m *VideoMixer) Tick(tc *activity.TickContext) error {
	frames, weights := m.frames[:0], m.present[:0]
	defer clear(frames[:cap(frames)]) // keep no payload past the tick
	var seq int
	var arrived avtime.WorldTime
	for i, p := range m.ins {
		in := tc.In(p)
		if in == nil {
			continue
		}
		f, ok := in.Payload.(*media.Frame)
		if !ok {
			return fmt.Errorf("activities: %s received %T, want raw frame", m.Name(), in.Payload)
		}
		frames = append(frames, f)
		weights = append(weights, m.weights[i])
		arrived = max(arrived, in.Arrived)
		seq = in.Seq
	}
	if len(frames) == 0 {
		return nil
	}
	first := frames[0]
	for _, f := range frames[1:] {
		if f.Width != first.Width || f.Height != first.Height || f.Depth != first.Depth {
			return fmt.Errorf("activities: %s mixing mismatched geometries %dx%d and %dx%d",
				m.Name(), first.Width, first.Height, f.Width, f.Height)
		}
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	out := m.out
	if out == nil || out.Width != first.Width || out.Height != first.Height || out.Depth != first.Depth {
		out = media.NewScratchFrame(first.Width, first.Height, first.Depth)
		m.out = out
	}
	for p := range out.Pix {
		var acc float64
		for i, f := range frames {
			acc += weights[i] / total * float64(f.Pix[p])
		}
		out.Pix[p] = byte(acc + 0.5)
	}
	tc.Emit("out", &activity.Chunk{
		Seq: seq, At: tc.Now,
		Arrived: arrived,
		Payload: out,
	})
	return nil
}

// VideoWindow is Table 1's "video window": the display sink.  Instead of
// painting pixels it validates geometry against its quality factor and
// keeps presentation statistics; optionally it retains the frames for
// inspection.
type VideoWindow struct {
	*activity.Base
	quality    media.VideoQuality
	keepFrames bool

	frames   int
	bytes    int64
	kept     []*media.Frame
	arrivals []avtime.WorldTime
	monitor  *sched.Monitor
	stall    *sched.StallDetector
}

// NewVideoWindow returns a window expecting the given quality; a zero
// quality accepts any geometry.  Tolerance bounds acceptable lateness.
func NewVideoWindow(name string, loc activity.Location, q media.VideoQuality, tolerance avtime.WorldTime) *VideoWindow {
	w := &VideoWindow{
		Base:    activity.NewBase(name, "VideoWindow", loc),
		quality: q, monitor: sched.NewMonitor(tolerance),
	}
	w.AddPort("in", activity.In, media.TypeRawVideo30)
	w.DeclareEvents(activity.EventStalled, activity.EventRecovered,
		activity.EventDegraded, activity.EventRestored)
	return w
}

// KeepFrames retains delivered frames (each frame's Keep) for test
// inspection.
func (w *VideoWindow) KeepFrames() { w.keepFrames = true }

// EnableStallDetection arms a detector that declares a stall after
// threshold consecutive frames each later than the window's tolerance,
// emitting EventStalled on the edge and EventRecovered when deadlines
// are met again.  Configure before starting.
func (w *VideoWindow) EnableStallDetection(tolerance avtime.WorldTime, threshold int) *sched.StallDetector {
	d := sched.NewStallDetector(tolerance, threshold)
	d.OnStall(func(at avtime.WorldTime) {
		w.Emit(activity.EventInfo{Event: activity.EventStalled, Activity: w.Name(), At: at})
	})
	d.OnRecover(func(at avtime.WorldTime) {
		w.Emit(activity.EventInfo{Event: activity.EventRecovered, Activity: w.Name(), At: at})
	})
	w.stall = d
	return d
}

// Tick implements activity.Activity.
func (w *VideoWindow) Tick(tc *activity.TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	f, ok := in.Payload.(*media.Frame)
	if !ok {
		return fmt.Errorf("activities: %s received %T, want raw frame", w.Name(), in.Payload)
	}
	if !w.quality.IsZero() && (f.Width != w.quality.Width || f.Height != w.quality.Height || f.Depth != w.quality.Depth) {
		return fmt.Errorf("activities: %s expected %v, got %dx%dx%d frame",
			w.Name(), w.quality, f.Width, f.Height, f.Depth)
	}
	w.frames++
	w.bytes += f.Size()
	w.monitor.Record(in.At, in.Arrived)
	if w.stall != nil {
		w.stall.Record(in.At, in.Arrived)
	}
	w.arrivals = append(w.arrivals, in.Arrived)
	if w.keepFrames {
		w.kept = append(w.kept, f.Keep())
	}
	return nil
}

// FramesShown reports the number of frames presented.
func (w *VideoWindow) FramesShown() int { return w.frames }

// BytesShown reports the total pixel bytes presented.
func (w *VideoWindow) BytesShown() int64 { return w.bytes }

// Frames returns the retained frames (empty unless KeepFrames was set).
func (w *VideoWindow) Frames() []*media.Frame { return w.kept }

// Arrivals returns the per-frame actual presentation times.
func (w *VideoWindow) Arrivals() []avtime.WorldTime { return w.arrivals }

// Monitor returns the window's deadline statistics.
func (w *VideoWindow) Monitor() *sched.Monitor { return w.monitor }

// VideoWriter is Table 1's "video writer": a sink appending received
// frames to the video value bound to its in port — recording.  Encoded
// input is supported by constructing with a compressed type; the frames
// are then collected as encoded payloads via Collected.
type VideoWriter struct {
	*activity.Base
	typ       *media.Type
	collected []media.Element
	stream    *storage.Stream
}

// NewVideoWriter returns a writer accepting the given video type.
func NewVideoWriter(name string, loc activity.Location, typ *media.Type) (*VideoWriter, error) {
	if typ.Kind != media.KindVideo {
		return nil, fmt.Errorf("activities: VideoWriter needs a video type, got %s", typ.Name)
	}
	w := &VideoWriter{Base: activity.NewBase(name, "VideoWriter", loc), typ: typ}
	w.AddPort("in", activity.In, typ)
	return w, nil
}

// AttachStream ties writes to a bandwidth-reserved storage stream.
func (w *VideoWriter) AttachStream(s *storage.Stream) { w.stream = s }

// Tick implements activity.Activity.
func (w *VideoWriter) Tick(tc *activity.TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	if w.stream != nil {
		if _, err := w.stream.ReadTime(in.Size()); err != nil {
			return err
		}
	}
	el := in.Payload
	if f, isFrame := el.(*media.Frame); isFrame {
		f = f.Keep()
		// Raw frames destined for a bound VideoValue are appended in place.
		if dst, ok := w.Binding("in"); ok {
			if vv, isRaw := dst.(*media.VideoValue); isRaw {
				return vv.AppendFrame(f)
			}
		}
		el = f
	}
	w.collected = append(w.collected, el)
	return nil
}

// Collected returns elements received without a bound destination.
func (w *VideoWriter) Collected() []media.Element { return w.collected }
