package main

import (
	"avdb/internal/activities"
	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/codec"
	"avdb/internal/media"
)

// The traced pass sees inside the engine through activity decorators: a
// decorator embeds the concrete activity — so AttachStream,
// SampleLatency, Emit, Catch, Degrade and every other method stay
// promoted and core's type assertions keep working — and overrides only
// Tick, timing it on the harness stopwatch.  The untraced passes install
// the bare activities, so the measured region pays nothing for this.

// tickStat is the running total for one activity class in one pass.
type tickStat struct {
	ticks   int64
	ns      int64 // time inside Tick, children included
	childNS int64 // part of ns spent in decorated children (composites)
}

// selfNS is the class's own time: span minus children.
func (s *tickStat) selfNS() int64 { return s.ns - s.childNS }

// tickBook holds the per-class totals of one traced pass.  The pass is
// serial (Workers = EngineWorkers = 1): every Tick runs on the engine
// goroutine, so the totals need no lock.
type tickBook struct {
	sw         *stopwatch
	byClass    map[string]*tickStat
	topLevelNS int64 // time inside graph-level activities: what the engine sees as "a tick"
}

func newTickBook(sw *stopwatch) *tickBook {
	return &tickBook{sw: sw, byClass: make(map[string]*tickStat)}
}

// timer returns the timer a decorator of the given class charges.  A
// non-nil parent is the enclosing composite's timer: the child's time is
// also booked as the parent's child time, which is how a composite's
// self time (span − children) falls out.
func (b *tickBook) timer(class string, parent *tickTimer) *tickTimer {
	st := b.byClass[class]
	if st == nil {
		st = &tickStat{}
		b.byClass[class] = st
	}
	return &tickTimer{book: b, stat: st, parent: parent, class: class, span: noSpan}
}

// tickTimer is one decorated activity's handle on the book.
type tickTimer struct {
	book   *tickBook
	stat   *tickStat
	parent *tickTimer
	class  string

	// Set on the sampled session only: every tick becomes a span.
	rec  *recorder
	span int32
}

// sample makes every tick of this activity a span under parent.
func (t *tickTimer) sample(rec *recorder, parent int32) {
	if t != nil {
		t.rec, t.span = rec, parent
	}
}

func (t *tickTimer) start() int64 { return t.book.sw.now() }

func (t *tickTimer) stop(start int64) {
	end := t.book.sw.now()
	d := end - start
	t.stat.ticks++
	t.stat.ns += d
	if t.parent != nil {
		t.parent.stat.childNS += d
	} else {
		t.book.topLevelNS += d
	}
	if t.rec != nil {
		t.rec.add(t.span, "activities", t.class+".Tick", start, end, 1)
	}
}

type tracedVideoReader struct {
	*activities.VideoReader
	t *tickTimer
}

func (a *tracedVideoReader) Tick(tc *activity.TickContext) error {
	s := a.t.start()
	err := a.VideoReader.Tick(tc)
	a.t.stop(s)
	return err
}

type tracedVideoWindow struct {
	*activities.VideoWindow
	t *tickTimer
}

func (a *tracedVideoWindow) Tick(tc *activity.TickContext) error {
	s := a.t.start()
	err := a.VideoWindow.Tick(tc)
	a.t.stop(s)
	return err
}

type tracedVideoDecoder struct {
	*activities.VideoDecoder
	t *tickTimer
}

func (a *tracedVideoDecoder) Tick(tc *activity.TickContext) error {
	s := a.t.start()
	err := a.VideoDecoder.Tick(tc)
	a.t.stop(s)
	return err
}

type tracedVideoEncoder struct {
	*activities.VideoEncoder
	t *tickTimer
}

func (a *tracedVideoEncoder) Tick(tc *activity.TickContext) error {
	s := a.t.start()
	err := a.VideoEncoder.Tick(tc)
	a.t.stop(s)
	return err
}

type tracedVideoWriter struct {
	*activities.VideoWriter
	t *tickTimer
}

func (a *tracedVideoWriter) Tick(tc *activity.TickContext) error {
	s := a.t.start()
	err := a.VideoWriter.Tick(tc)
	a.t.stop(s)
	return err
}

type tracedVideoDigitizer struct {
	*activities.VideoDigitizer
	t *tickTimer
}

func (a *tracedVideoDigitizer) Tick(tc *activity.TickContext) error {
	s := a.t.start()
	err := a.VideoDigitizer.Tick(tc)
	a.t.stop(s)
	return err
}

type tracedAudioReader struct {
	*activities.AudioReader
	t *tickTimer
}

func (a *tracedAudioReader) Tick(tc *activity.TickContext) error {
	s := a.t.start()
	err := a.AudioReader.Tick(tc)
	a.t.stop(s)
	return err
}

type tracedAudioSink struct {
	*activities.AudioSink
	t *tickTimer
}

func (a *tracedAudioSink) Tick(tc *activity.TickContext) error {
	s := a.t.start()
	err := a.AudioSink.Tick(tc)
	a.t.stop(s)
	return err
}

type tracedSubtitleReader struct {
	*activities.SubtitleReader
	t *tickTimer
}

func (a *tracedSubtitleReader) Tick(tc *activity.TickContext) error {
	s := a.t.start()
	err := a.SubtitleReader.Tick(tc)
	a.t.stop(s)
	return err
}

type tracedSubtitleSink struct {
	*activities.SubtitleSink
	t *tickTimer
}

func (a *tracedSubtitleSink) Tick(tc *activity.TickContext) error {
	s := a.t.start()
	err := a.SubtitleSink.Tick(tc)
	a.t.stop(s)
	return err
}

type tracedComposite struct {
	*activity.Composite
	t *tickTimer
}

func (a *tracedComposite) Tick(tc *activity.TickContext) error {
	s := a.t.start()
	err := a.Composite.Tick(tc)
	a.t.stop(s)
	return err
}

// kit builds the activities a session installs: bare when book is nil
// (the untraced passes), decorated otherwise.  Each constructor returns
// the value to install in the graph and the concrete activity the driver
// keeps for Catch, Degrade, FramesShown and the like; undecorated, the
// two are the same pointer.  parent is the enclosing composite's timer,
// nil at graph level.
type kit struct {
	book *tickBook
}

func (k kit) traced() bool { return k.book != nil }

func (k kit) videoReader(name string, loc activity.Location, typ *media.Type, parent *tickTimer) (activity.Activity, *activities.VideoReader, *tickTimer, error) {
	a, err := activities.NewVideoReader(name, loc, typ)
	if err != nil {
		return nil, nil, nil, err
	}
	if !k.traced() {
		return a, a, nil, nil
	}
	t := k.book.timer("VideoReader", parent)
	return &tracedVideoReader{a, t}, a, t, nil
}

func (k kit) videoWindow(name string, loc activity.Location, q media.VideoQuality, tol avtime.WorldTime, parent *tickTimer) (activity.Activity, *activities.VideoWindow, *tickTimer) {
	a := activities.NewVideoWindow(name, loc, q, tol)
	if !k.traced() {
		return a, a, nil
	}
	t := k.book.timer("VideoWindow", parent)
	return &tracedVideoWindow{a, t}, a, t
}

func (k kit) videoDecoder(name string, loc activity.Location, typ *media.Type, dec *codec.VideoStreamDecoder, parent *tickTimer) (activity.Activity, *tickTimer, error) {
	a, err := activities.NewVideoDecoder(name, loc, typ, dec)
	if err != nil {
		return nil, nil, err
	}
	if !k.traced() {
		return a, nil, nil
	}
	t := k.book.timer("VideoDecoder", parent)
	return &tracedVideoDecoder{a, t}, t, nil
}

func (k kit) videoEncoder(name string, loc activity.Location, typ *media.Type, enc *codec.VideoStreamEncoder) (activity.Activity, *tickTimer, error) {
	a, err := activities.NewVideoEncoder(name, loc, typ, enc)
	if err != nil {
		return nil, nil, err
	}
	if !k.traced() {
		return a, nil, nil
	}
	t := k.book.timer("VideoEncoder", nil)
	return &tracedVideoEncoder{a, t}, t, nil
}

func (k kit) videoWriter(name string, loc activity.Location, typ *media.Type) (activity.Activity, *activities.VideoWriter, *tickTimer, error) {
	a, err := activities.NewVideoWriter(name, loc, typ)
	if err != nil {
		return nil, nil, nil, err
	}
	if !k.traced() {
		return a, a, nil, nil
	}
	t := k.book.timer("VideoWriter", nil)
	return &tracedVideoWriter{a, t}, a, t, nil
}

func (k kit) videoDigitizer(name string, loc activity.Location, gen activities.FrameGenerator, frames int) (activity.Activity, *tickTimer, error) {
	a, err := activities.NewVideoDigitizer(name, loc, gen, frames)
	if err != nil {
		return nil, nil, err
	}
	if !k.traced() {
		return a, nil, nil
	}
	t := k.book.timer("VideoDigitizer", nil)
	return &tracedVideoDigitizer{a, t}, t, nil
}

func (k kit) audioReader(name string, loc activity.Location, typ *media.Type, parent *tickTimer) (activity.Activity, *activities.AudioReader, *tickTimer, error) {
	a, err := activities.NewAudioReader(name, loc, typ)
	if err != nil {
		return nil, nil, nil, err
	}
	if !k.traced() {
		return a, a, nil, nil
	}
	t := k.book.timer("AudioReader", parent)
	return &tracedAudioReader{a, t}, a, t, nil
}

func (k kit) audioSink(name string, loc activity.Location, typ *media.Type, q media.AudioQuality, tol avtime.WorldTime, parent *tickTimer) (activity.Activity, *activities.AudioSink, *tickTimer, error) {
	a, err := activities.NewAudioSink(name, loc, typ, q, tol)
	if err != nil {
		return nil, nil, nil, err
	}
	if !k.traced() {
		return a, a, nil, nil
	}
	t := k.book.timer("AudioSink", parent)
	return &tracedAudioSink{a, t}, a, t, nil
}

func (k kit) subtitleReader(name string, loc activity.Location, parent *tickTimer) (activity.Activity, *tickTimer) {
	a := activities.NewSubtitleReader(name, loc)
	if !k.traced() {
		return a, nil
	}
	t := k.book.timer("SubtitleReader", parent)
	return &tracedSubtitleReader{a, t}, t
}

func (k kit) subtitleSink(name string, loc activity.Location, parent *tickTimer) (activity.Activity, *activities.SubtitleSink, *tickTimer) {
	a := activities.NewSubtitleSink(name, loc)
	if !k.traced() {
		return a, a, nil
	}
	t := k.book.timer("SubtitleSink", parent)
	return &tracedSubtitleSink{a, t}, a, t
}

// composite wraps an already-built composite (the caller still installs
// children and seals it through the concrete pointer).
func (k kit) composite(c *activity.Composite, parent *tickTimer) (activity.Activity, *tickTimer) {
	if !k.traced() {
		return c, nil
	}
	t := k.book.timer(c.Class(), parent)
	return &tracedComposite{c, t}, t
}
