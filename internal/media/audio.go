package media

import (
	"fmt"

	"avdb/internal/avtime"
)

// SampleFrame is one audio element: the simultaneous samples of all
// channels at one sampling instant (the paper's "pairs of 16 bit audio
// samples" for CD audio).
type SampleFrame []int16

// Size reports the element's byte size (two bytes per channel sample).
func (s SampleFrame) Size() int64 { return int64(len(s)) * 2 }

// AudioBlock is a window of consecutive sample frames, the unit in which
// stream activities move audio (per-sample chunks would be needlessly
// fine-grained at 44.1kHz).  Samples are interleaved.
//
// A delivered block follows the scratch contract of a Frame from
// NewScratchFrame: its producer may rewrite it once the tick that
// delivered it is over.  Its Samples share storage with the value, so a
// consumer that retains a block past its tick retains a copy of the
// struct.
type AudioBlock struct {
	Channels int
	Start    avtime.ObjectTime // object time of the first sample frame
	Samples  []int16
}

// Size reports the block's byte size.
func (b *AudioBlock) Size() int64 { return int64(len(b.Samples)) * 2 }

// NumFrames reports the number of sample frames in the block.
func (b *AudioBlock) NumFrames() int {
	if b.Channels == 0 {
		return 0
	}
	return len(b.Samples) / b.Channels
}

// Block returns the samples of frames [i, j) as an AudioBlock sharing
// storage with the value.
func (a *AudioValue) Block(i, j int) (AudioBlock, error) {
	s, err := a.Samples(i, j)
	if err != nil {
		return AudioBlock{}, err
	}
	return AudioBlock{Channels: a.channels, Start: avtime.ObjectTime(i), Samples: s}, nil
}

// AudioValue is the paper's AudioValue class: numChannel, depth and a
// sequence of sample frames.  Samples are stored interleaved; depth is
// fixed at 16 bits (the storage layer packs narrower qualities).
type AudioValue struct {
	Base
	channels int
	samples  []int16 // interleaved: frame i occupies [i*channels, (i+1)*channels)
}

var _ Value = (*AudioValue)(nil)

// NewAudioValue returns an empty audio value with the given channel count
// and media data type.  The type must be an audio type.
func NewAudioValue(typ *Type, channels int) *AudioValue {
	if typ.Kind != KindAudio {
		panic(fmt.Sprintf("media: NewAudioValue with %s type %q", typ.Kind, typ.Name))
	}
	if channels <= 0 {
		panic(fmt.Sprintf("media: invalid channel count %d", channels))
	}
	a := &AudioValue{channels: channels}
	a.Base = NewBase(typ, func() int { return a.NumSamples() })
	return a
}

// NumSamples reports the number of sample frames.
func (a *AudioValue) NumSamples() int { return len(a.samples) / a.channels }

// NumElements implements Value.
func (a *AudioValue) NumElements() int { return a.NumSamples() }

// AppendSamples appends interleaved samples.  The slice length must be a
// multiple of the channel count.
func (a *AudioValue) AppendSamples(s []int16) error {
	if len(s)%a.channels != 0 {
		return fmt.Errorf("media: %d samples not a multiple of %d channels", len(s), a.channels)
	}
	a.samples = append(a.samples, s...)
	return nil
}

// Sample returns sample frame i.
func (a *AudioValue) Sample(i int) (SampleFrame, error) {
	if i < 0 || i >= a.NumSamples() {
		return nil, fmt.Errorf("%w: sample %d of %d", ErrOutOfRange, i, a.NumSamples())
	}
	return SampleFrame(a.samples[i*a.channels : (i+1)*a.channels]), nil
}

// Samples returns the interleaved samples of frames [i, j) without
// copying.  Stream activities move audio in such windows rather than one
// element at a time.
func (a *AudioValue) Samples(i, j int) ([]int16, error) {
	if i < 0 || j < i || j > a.NumSamples() {
		return nil, fmt.Errorf("%w: samples [%d,%d) of %d", ErrOutOfRange, i, j, a.NumSamples())
	}
	return a.samples[i*a.channels : j*a.channels], nil
}

// Element implements Value, returning the sample frame presented at world
// time w.
func (a *AudioValue) Element(w avtime.WorldTime) (Element, error) {
	i, err := a.objectIndex(w)
	if err != nil {
		return nil, err
	}
	s, err := a.Sample(i)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ElementAt implements Value.
func (a *AudioValue) ElementAt(o avtime.ObjectTime) (Element, error) {
	i, err := a.checkIndex(o)
	if err != nil {
		return nil, err
	}
	s, err := a.Sample(i)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Size implements Value: two bytes per channel sample.
func (a *AudioValue) Size() int64 { return int64(len(a.samples)) * 2 }

// String describes the value, e.g. "audio/cd-pcm 2ch, 44100 samples".
func (a *AudioValue) String() string {
	return fmt.Sprintf("%s %dch, %d samples", a.typ.Name, a.channels, a.NumSamples())
}
