// Package media implements the AV data model of the paper's §4.1: media
// values with world/object time behavior, concrete video, audio and text
// value classes, media data types, and quality factors.
//
// A media data type (Type) governs "the encoding and interpretation" of a
// value's elements and determines its data rate.  A Value is a finite
// sequence of elements together with a transform between world time and
// the value's own object time; Scale and Translate reposition the value on
// the world timeline exactly as the paper's MediaValue class prescribes.
package media

import (
	"fmt"

	"avdb/internal/avtime"
)

// Kind classifies a media data type by the sense it addresses.
type Kind int

// The media kinds handled by the database.  KindMulti is the kind of a
// multiplexed composite stream carrying several temporally correlated
// tracks over one connection.
const (
	KindVideo Kind = iota
	KindAudio
	KindText
	KindMulti
	// KindControl is the kind of low-rate control streams, e.g. the
	// user-driven camera movement feeding the virtual-world renderer.
	KindControl
)

var kindNames = [...]string{
	KindVideo:   "video",
	KindAudio:   "audio",
	KindText:    "text",
	KindMulti:   "multi",
	KindControl: "control",
}

// String returns the kind's name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// DataRate is a sustained data rate in bytes per second.  It is the
// currency of admission control: devices, network links and activities all
// budget in DataRates.
type DataRate int64

// Convenient data-rate units.
const (
	BytePerSecond DataRate = 1
	KBPerSecond            = 1000 * BytePerSecond
	MBPerSecond            = 1000 * KBPerSecond
	GBPerSecond            = 1000 * MBPerSecond
)

// String formats the rate in engineering units, e.g. "31.10MB/s".
func (r DataRate) String() string {
	switch {
	case r >= GBPerSecond:
		return fmt.Sprintf("%.2fGB/s", float64(r)/float64(GBPerSecond))
	case r >= MBPerSecond:
		return fmt.Sprintf("%.2fMB/s", float64(r)/float64(MBPerSecond))
	case r >= KBPerSecond:
		return fmt.Sprintf("%.2fKB/s", float64(r)/float64(KBPerSecond))
	}
	return fmt.Sprintf("%dB/s", int64(r))
}

// Type is a media data type: it names an encoding, fixes the element rate
// for fixed-rate types, and reports whether elements are compressed.
// Examples from the paper: CD encoded audio (16-bit sample pairs at
// 44.1kHz) and CCIR 601 digital video.
type Type struct {
	Name       string      // canonical name, e.g. "video/ccir601"
	Kind       Kind        // sense addressed
	Rate       avtime.Rate // element rate; zero for untimed types
	Compressed bool        // true if elements are an encoded representation
}

// String returns the type's canonical name.
func (t *Type) String() string { return t.Name }

// Built-in raw (uncompressed) media data types.
var (
	// TypeCCIRVideo is component digital video in the style of CCIR 601:
	// raster frames of 8-bit samples.  We use the 25-frame variant so whole
	// frames align with whole milliseconds.
	TypeCCIRVideo = &Type{Name: "video/ccir601", Kind: KindVideo, Rate: avtime.RateVideo25}
	// TypeRawVideo30 is uncompressed 30fps raster video, the paper's
	// timecode rate.
	TypeRawVideo30 = &Type{Name: "video/raw30", Kind: KindVideo, Rate: avtime.RateVideo30}
	// TypeCDAudio is CD encoded audio: pairs of 16-bit samples at 44.1kHz.
	TypeCDAudio = &Type{Name: "audio/cd-pcm", Kind: KindAudio, Rate: avtime.RateCDAudio}
	// TypeFMAudio is "FM-quality" PCM audio.
	TypeFMAudio = &Type{Name: "audio/fm-pcm", Kind: KindAudio, Rate: avtime.RateFMAudio}
	// TypeVoiceAudio is "voice-quality" PCM audio.
	TypeVoiceAudio = &Type{Name: "audio/voice-pcm", Kind: KindAudio, Rate: avtime.RateVoice}
	// TypeTextStream is a stream of timed text cues (subtitles) with
	// millisecond tick resolution.
	TypeTextStream = &Type{Name: "text/stream", Kind: KindText, Rate: avtime.Rate{N: 1000, D: 1}}
	// TypeMultiTrack is the type of a multiplexed composite stream: the
	// single connection between a MultiSource and a MultiSink carries
	// chunks of this type, each bundling one element per track.
	TypeMultiTrack = &Type{Name: "multi/tracks", Kind: KindMulti}
)

// Element is one data element of an AV value: a video frame, an audio
// sample block or a text cue.
type Element interface {
	// Size reports the element's size in bytes as stored.
	Size() int64
}

// Value is the paper's MediaValue: a finite sequence of elements with a
// media data type and a position on the world timeline.
type Value interface {
	// Type returns the value's media data type.
	Type() *Type
	// NumElements reports the length of the element sequence.
	NumElements() int
	// Start reports the world time at which the value begins presentation.
	Start() avtime.WorldTime
	// Duration reports the presentation duration of the whole value under
	// its current transform.
	Duration() avtime.WorldTime
	// Interval reports [Start, Start+Duration).
	Interval() avtime.Interval
	// WorldToObject maps a world time to this value's object time.
	WorldToObject(avtime.WorldTime) avtime.ObjectTime
	// ObjectToWorld maps this value's object time to world time.
	ObjectToWorld(avtime.ObjectTime) avtime.WorldTime
	// Scale multiplies the value's presentation speed by f (2 = double
	// speed, half duration).  It panics if f <= 0.
	Scale(f float64)
	// Translate shifts the value on the world timeline by dw.
	Translate(dw avtime.WorldTime)
	// Element returns the element presented at world time w.
	Element(w avtime.WorldTime) (Element, error)
	// ElementAt returns the element with object time o.
	ElementAt(o avtime.ObjectTime) (Element, error)
	// Size reports the total stored size of the value in bytes.
	Size() int64
}

// ErrOutOfRange is returned (wrapped) by element accessors for times that
// fall outside the value.
var ErrOutOfRange = fmt.Errorf("media: time out of value's range")

// Base carries the type and the transform bookkeeping every value
// shares: a concrete value embeds it, as the codecs' encoded values do
// too, and gets Value's time methods from it.
type Base struct {
	typ *Type
	tr  avtime.Transform
	n   func() int // element count, supplied by the concrete type
}

// NewBase returns the Base of a value of type typ with n() elements,
// starting at world time 0 at the type's rate.
func NewBase(typ *Type, n func() int) Base {
	return Base{typ: typ, tr: avtime.NewTransform(typ.Rate), n: n}
}

// Transform reports the value's world/object transform.
func (b *Base) Transform() avtime.Transform { return b.tr }

// SetTransform places the value on the given transform, as a codec does
// to carry a value's timeline across encoding and decoding.
func (b *Base) SetTransform(t avtime.Transform) { b.tr = t }

func (b *Base) Type() *Type { return b.typ }

func (b *Base) Start() avtime.WorldTime { return b.tr.Translate }

func (b *Base) Duration() avtime.WorldTime {
	return b.tr.DurationOf(avtime.ObjectTime(b.n()))
}

func (b *Base) Interval() avtime.Interval {
	return avtime.Interval{Start: b.Start(), Dur: b.Duration()}
}

func (b *Base) WorldToObject(w avtime.WorldTime) avtime.ObjectTime {
	return b.tr.WorldToObject(w)
}

func (b *Base) ObjectToWorld(o avtime.ObjectTime) avtime.WorldTime {
	return b.tr.ObjectToWorld(o)
}

func (b *Base) Scale(f float64) {
	if f <= 0 {
		panic("media: Scale factor must be positive")
	}
	b.tr = b.tr.Scaled(f)
}

func (b *Base) Translate(dw avtime.WorldTime) {
	b.tr = b.tr.Translated(dw)
}

// objectIndex converts a world time to a bounds-checked element index.
func (b *Base) objectIndex(w avtime.WorldTime) (int, error) {
	o := b.tr.WorldToObject(w)
	return b.checkIndex(o)
}

func (b *Base) checkIndex(o avtime.ObjectTime) (int, error) {
	if o < 0 || int(o) >= b.n() {
		return 0, fmt.Errorf("%w: element %d of %d", ErrOutOfRange, o, b.n())
	}
	return int(o), nil
}
