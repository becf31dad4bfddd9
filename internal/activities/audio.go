package activities

import (
	"fmt"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/storage"
)

// AudioReader is a source producing a stored audio value as sample-
// accurate blocks: at every tick it emits exactly the samples whose
// presentation falls inside the tick's interval, so audio stays exact at
// any graph tick rate.  It emits one block, rewritten every tick (the
// scratch contract of media.AudioBlock).
type AudioReader struct {
	*activity.Base
	out      *activity.Port
	consumed int
	started  avtime.WorldTime
	haveT0   bool
	stream   *storage.Stream
	block    media.AudioBlock
}

// NewAudioReader returns a reader whose out port carries the given audio
// type.
func NewAudioReader(name string, loc activity.Location, typ *media.Type) (*AudioReader, error) {
	if typ.Kind != media.KindAudio {
		return nil, fmt.Errorf("activities: AudioReader needs an audio type, got %s", typ.Name)
	}
	r := &AudioReader{Base: activity.NewBase(name, "AudioReader", loc)}
	r.out = r.AddPort("out", activity.Out, typ)
	r.DeclareEvents(activity.EventEachFrame, activity.EventLastFrame)
	return r, nil
}

// AttachStream ties block delivery to a bandwidth-reserved storage
// stream.
func (r *AudioReader) AttachStream(s *storage.Stream) { r.stream = s }

// Tick implements activity.Activity.
func (r *AudioReader) Tick(tc *activity.TickContext) error {
	v, ok := r.out.Bound()
	if !ok {
		return fmt.Errorf("activities: %s has no bound value", r.Name())
	}
	av, ok := v.(*media.AudioValue)
	if !ok {
		return fmt.Errorf("activities: %s bound to %T, want AudioValue", r.Name(), v)
	}
	if !r.haveT0 {
		r.started = tc.Now
		r.haveT0 = true
		if r.CuePoint() > 0 {
			r.consumed = int(v.Type().Rate.UnitsIn(r.CuePoint()))
		}
	}
	total := av.NumSamples()
	if r.consumed >= total {
		r.MarkDone()
		return nil
	}
	// Honor the value's timeline placement: samples become due only after
	// the value's start offset has elapsed.
	elapsed := tc.Interval.End() - r.started - av.Start()
	if elapsed <= 0 {
		return nil
	}
	cueSamples := int(v.Type().Rate.UnitsIn(r.CuePoint()))
	target := cueSamples + int(v.Type().Rate.UnitsIn(elapsed))
	if target > total {
		target = total
	}
	if target <= r.consumed {
		return nil
	}
	block, err := av.Block(r.consumed, target)
	if err != nil {
		return err
	}
	r.block = block
	c := &activity.Chunk{Seq: r.consumed, At: tc.Now, Arrived: tc.Now, Payload: &r.block}
	if r.stream != nil {
		dt, err := r.stream.ReadTime(r.block.Size())
		if err != nil {
			return err
		}
		c.Arrived += dt
	}
	tc.Emit("out", c)
	r.Emit(activity.EventInfo{Event: activity.EventEachFrame, At: tc.Now, Seq: r.consumed})
	r.consumed = target
	if r.consumed >= total {
		r.Emit(activity.EventInfo{Event: activity.EventLastFrame, At: tc.Now, Seq: r.consumed - 1})
		r.MarkDone()
	}
	return nil
}

// AudioSink consumes audio blocks at a DAC: it validates stream
// continuity (no gaps or overlaps in sample positions) and records when
// each block arrived.
type AudioSink struct {
	*activity.Base
	quality media.AudioQuality

	next     avtime.ObjectTime
	haveNext bool
	samples  int64
	arrivals []avtime.WorldTime
}

// NewAudioSink returns a sink accepting the given audio type at the given
// quality factor.  The sink keeps no deadline statistics, so it ignores
// the tolerance, which its callers pass as they pass a VideoWindow's.
func NewAudioSink(name string, loc activity.Location, typ *media.Type, q media.AudioQuality, tolerance avtime.WorldTime) (*AudioSink, error) {
	if typ.Kind != media.KindAudio {
		return nil, fmt.Errorf("activities: AudioSink needs an audio type, got %s", typ.Name)
	}
	s := &AudioSink{Base: activity.NewBase(name, "AudioSink", loc), quality: q}
	s.AddPort("in", activity.In, typ)
	return s, nil
}

// Tick implements activity.Activity.
func (s *AudioSink) Tick(tc *activity.TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	b, ok := in.Payload.(*media.AudioBlock)
	if !ok {
		return fmt.Errorf("activities: %s received %T, want audio block", s.Name(), in.Payload)
	}
	if s.haveNext && b.Start != s.next {
		return fmt.Errorf("activities: %s: discontinuity: got sample %d, want %d", s.Name(), b.Start, s.next)
	}
	s.next = b.Start + avtime.ObjectTime(b.NumFrames())
	s.haveNext = true
	s.samples += int64(b.NumFrames())
	s.arrivals = append(s.arrivals, in.Arrived)
	return nil
}

// SamplesPlayed reports the number of sample frames consumed.
func (s *AudioSink) SamplesPlayed() int64 { return s.samples }

// Arrivals returns per-block actual delivery times.
func (s *AudioSink) Arrivals() []avtime.WorldTime { return s.arrivals }
