package media

import (
	"fmt"
	"sort"

	"avdb/internal/avtime"
)

// Cue is one timed-text element: text displayed for a span of the text
// stream's object time (ticks of TypeTextStream's rate, i.e. milliseconds).
type Cue struct {
	At   avtime.ObjectTime // first tick at which the cue is shown
	Dur  avtime.ObjectTime // ticks the cue stays up, > 0
	Text string
}

// Size reports the cue's byte size.
func (c Cue) Size() int64 { return int64(len(c.Text)) }

// TextStreamValue is the paper's TextStreamValue (the subtitleTrack of the
// Newscast class): a sequence of non-overlapping timed text cues.  Its
// object time is the tick, so NumElements is the tick length of the
// stream, not the cue count.
type TextStreamValue struct {
	Base
	cues  []Cue
	ticks avtime.ObjectTime // total extent in ticks
}

var _ Value = (*TextStreamValue)(nil)

// NewTextStreamValue returns an empty text stream of the given extent in
// ticks of TypeTextStream's rate (milliseconds).
func NewTextStreamValue(ticks avtime.ObjectTime) *TextStreamValue {
	if ticks < 0 {
		panic("media: negative text stream extent")
	}
	v := &TextStreamValue{ticks: ticks}
	v.Base = NewBase(TypeTextStream, func() int { return int(v.ticks) })
	return v
}

// AddCue inserts a cue, keeping cues ordered and rejecting overlaps and
// cues extending past the stream's extent.
func (v *TextStreamValue) AddCue(c Cue) error {
	if c.Dur <= 0 {
		return fmt.Errorf("media: cue duration must be positive")
	}
	if c.At < 0 || c.At+c.Dur > v.ticks {
		return fmt.Errorf("%w: cue [%d,%d) of %d ticks", ErrOutOfRange, c.At, c.At+c.Dur, v.ticks)
	}
	i := sort.Search(len(v.cues), func(i int) bool { return v.cues[i].At >= c.At })
	if i < len(v.cues) && v.cues[i].At < c.At+c.Dur {
		return fmt.Errorf("media: cue at tick %d overlaps cue at tick %d", c.At, v.cues[i].At)
	}
	if i > 0 && v.cues[i-1].At+v.cues[i-1].Dur > c.At {
		return fmt.Errorf("media: cue at tick %d overlaps cue at tick %d", c.At, v.cues[i-1].At)
	}
	v.cues = append(v.cues[:i], append([]Cue{c}, v.cues[i:]...)...)
	return nil
}

// CueAt returns the cue displayed at tick o, if any.
func (v *TextStreamValue) CueAt(o avtime.ObjectTime) (Cue, bool) {
	i := sort.Search(len(v.cues), func(i int) bool { return v.cues[i].At+v.cues[i].Dur > o })
	if i < len(v.cues) && v.cues[i].At <= o {
		return v.cues[i], true
	}
	return Cue{}, false
}

// NumElements implements Value: the extent in ticks.
func (v *TextStreamValue) NumElements() int { return int(v.ticks) }

// Element implements Value, returning the cue shown at world time w.  At
// ticks with no cue it returns an empty Cue (blank subtitle), not an
// error; silence is a valid state of a subtitle track.
func (v *TextStreamValue) Element(w avtime.WorldTime) (Element, error) {
	o := v.tr.WorldToObject(w)
	return v.ElementAt(o)
}

// ElementAt implements Value.
func (v *TextStreamValue) ElementAt(o avtime.ObjectTime) (Element, error) {
	if o < 0 || o >= v.ticks {
		return nil, fmt.Errorf("%w: tick %d of %d", ErrOutOfRange, o, v.ticks)
	}
	if c, ok := v.CueAt(o); ok {
		return c, nil
	}
	return Cue{At: o, Dur: 1}, nil
}

// Size implements Value.
func (v *TextStreamValue) Size() int64 {
	var n int64
	for _, c := range v.cues {
		n += c.Size()
	}
	return n
}

// String describes the value.
func (v *TextStreamValue) String() string {
	return fmt.Sprintf("%s %d cues over %d ticks", v.typ.Name, len(v.cues), v.ticks)
}
