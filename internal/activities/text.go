package activities

import (
	"fmt"

	"avdb/internal/activity"
	"avdb/internal/avtime"
	"avdb/internal/media"
)

// SubtitleReader is a source producing the cues of a text stream value:
// it emits a chunk whenever the displayed cue changes (including the
// change to silence).
type SubtitleReader struct {
	*activity.Base
	out      *activity.Port
	started  avtime.WorldTime
	haveT0   bool
	last     string
	lastSeen bool
	done     bool
	seq      int
}

// NewSubtitleReader returns a subtitle source.
func NewSubtitleReader(name string, loc activity.Location) *SubtitleReader {
	r := &SubtitleReader{Base: activity.NewBase(name, "SubtitleReader", loc)}
	r.out = r.AddPort("out", activity.Out, media.TypeTextStream)
	r.DeclareEvents(activity.EventEachFrame, activity.EventLastFrame)
	return r
}

// Tick implements activity.Activity.
func (r *SubtitleReader) Tick(tc *activity.TickContext) error {
	v, ok := r.out.Bound()
	if !ok {
		return fmt.Errorf("activities: %s has no bound value", r.Name())
	}
	ts, ok := v.(*media.TextStreamValue)
	if !ok {
		return fmt.Errorf("activities: %s bound to %T, want TextStreamValue", r.Name(), v)
	}
	if !r.haveT0 {
		r.started = tc.Now
		r.haveT0 = true
	}
	// Honor the value's timeline placement.
	elapsed := tc.Now - r.started + r.CuePoint() - ts.Start()
	if elapsed < 0 {
		return nil
	}
	tick := v.Type().Rate.UnitsIn(elapsed)
	if int(tick) >= ts.NumElements() {
		if !r.done {
			r.Emit(activity.EventInfo{Event: activity.EventLastFrame, At: tc.Now, Seq: r.seq})
			r.done = true
		}
		r.MarkDone()
		return nil
	}
	cue, _ := ts.CueAt(tick)
	if r.lastSeen && cue.Text == r.last {
		return nil
	}
	r.last = cue.Text
	r.lastSeen = true
	tc.Emit("out", &activity.Chunk{Seq: r.seq, At: tc.Now, Arrived: tc.Now, Payload: cue})
	r.Emit(activity.EventInfo{Event: activity.EventEachFrame, At: tc.Now, Seq: r.seq})
	r.seq++
	return nil
}

// SubtitleSink collects displayed cue changes.
type SubtitleSink struct {
	*activity.Base
	cues []media.Cue
}

// NewSubtitleSink returns a subtitle sink.
func NewSubtitleSink(name string, loc activity.Location) *SubtitleSink {
	s := &SubtitleSink{Base: activity.NewBase(name, "SubtitleSink", loc)}
	s.AddPort("in", activity.In, media.TypeTextStream)
	return s
}

// Tick implements activity.Activity.
func (s *SubtitleSink) Tick(tc *activity.TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	cue, ok := in.Payload.(media.Cue)
	if !ok {
		return fmt.Errorf("activities: %s received %T, want cue", s.Name(), in.Payload)
	}
	s.cues = append(s.cues, cue)
	return nil
}

// Cues returns the cue changes seen, in order.
func (s *SubtitleSink) Cues() []media.Cue { return s.cues }
