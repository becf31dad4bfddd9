// Package codec provides the encoded representations of AV values: an
// intra-frame codec (JPEG-style), an inter-frame codec with key frames
// (MPEG-style), a coarse production codec (DVI-style), a layered scalable
// codec supporting quality down-scaling by layer dropping.  Audio is
// stored as raw PCM.
//
// The codecs are real software codecs (predictive transform + quantization
// + run-length entropy coding), not wrappers: they exhibit the properties
// the paper's design arguments rest on — intra-coded video is randomly
// accessible, inter-coded video compresses better but must decode from the
// preceding key frame, and scalable video can be served at reduced quality
// by ignoring encoded layers (§4.1).
//
// A whole value is coded GOP-parallel: its frames split into GOPs (GOPN
// frames for Inter, one for the all-key codecs), which
// min(GOMAXPROCS, GOPs) workers, the caller among them, claim from one
// atomic cursor.  Every GOP opens with a key frame, so the bytes do not
// depend on the split; a GOP's encoded frames share one exact-size
// block, and a failed decode reports the lowest failing frame.
package codec

import (
	"fmt"
	"sync"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// Encoded media data types.  LV is the analog-videodisc representation:
// stored and retrieved as whole frames by the jukebox device, digitized on
// read; it has no software codec.
var (
	TypeJPEGVideo     = &media.Type{Name: "video/jpeg-sim", Kind: media.KindVideo, Rate: avtime.RateVideo30, Compressed: true}
	TypeMPEGVideo     = &media.Type{Name: "video/mpeg-sim", Kind: media.KindVideo, Rate: avtime.RateVideo30, Compressed: true}
	TypeDVIVideo      = &media.Type{Name: "video/dvi-sim", Kind: media.KindVideo, Rate: avtime.RateVideo30, Compressed: true}
	TypeScalableVideo = &media.Type{Name: "video/scalable-sim", Kind: media.KindVideo, Rate: avtime.RateVideo30, Compressed: true}
	TypeLVVideo       = &media.Type{Name: "video/lv-analog", Kind: media.KindVideo, Rate: avtime.RateVideo30}
)

// VideoCodec encodes raw video values into an encoded representation and
// back.  Codecs are stateless and safe for concurrent use.
type VideoCodec interface {
	// Name returns the codec's registry name.
	Name() string
	// Encode compresses a raw video value.
	Encode(v *media.VideoValue) (*EncodedVideo, error)
	// Decode reconstructs a raw video value.  For lossy settings the
	// result approximates the original within the codec's error bound.
	Decode(e *EncodedVideo) (*media.VideoValue, error)
}

var codecRegistry = struct {
	sync.RWMutex
	video map[string]VideoCodec
}{video: make(map[string]VideoCodec)}

// RegisterVideoCodec adds a video codec to the registry; duplicate names
// panic.
func RegisterVideoCodec(c VideoCodec) VideoCodec {
	codecRegistry.Lock()
	defer codecRegistry.Unlock()
	if _, dup := codecRegistry.video[c.Name()]; dup {
		panic(fmt.Sprintf("codec: duplicate video codec %q", c.Name()))
	}
	codecRegistry.video[c.Name()] = c
	return c
}

// LookupVideoCodec returns the registered video codec with the given name.
func LookupVideoCodec(name string) (VideoCodec, bool) {
	codecRegistry.RLock()
	defer codecRegistry.RUnlock()
	c, ok := codecRegistry.video[name]
	return c, ok
}

// EncodedFrame is one element of an encoded video value.
type EncodedFrame struct {
	Data []byte
	Key  bool // independently decodable
}

// Size reports the encoded frame's byte size.
func (f *EncodedFrame) Size() int64 { return int64(len(f.Data)) }

// EncodedVideo is a compressed video representation.  It implements
// media.Value so encoded values can be stored, bound to activities and
// streamed like raw values; its elements are EncodedFrames.
type EncodedVideo struct {
	media.Base
	codec                string
	width, height, depth int
	quant                int // codec quantization parameter at encode time
	gop                  int // key-frame period (1 for intra codecs)
	layers               int // layer count for scalable encodings (0 otherwise)
	frames               []*EncodedFrame
}

var _ media.Value = (*EncodedVideo)(nil)

func newEncodedVideo(typ *media.Type, codecName string, w, h, depth, quant, gop, layers int) *EncodedVideo {
	e := &EncodedVideo{
		codec: codecName, width: w, height: h, depth: depth,
		quant: quant, gop: gop, layers: layers,
	}
	e.Base = media.NewBase(typ, e.NumFrames)
	return e
}

// Codec reports the name of the codec that produced this value.
func (e *EncodedVideo) Codec() string { return e.codec }

// Width reports the encoded frame width in pixels.
func (e *EncodedVideo) Width() int { return e.width }

// Height reports the encoded frame height in pixels.
func (e *EncodedVideo) Height() int { return e.height }

// Depth reports the bits per pixel of the decoded frames.
func (e *EncodedVideo) Depth() int { return e.depth }

// Layers reports the number of encoded layers (scalable codec only).
func (e *EncodedVideo) Layers() int { return e.layers }

// GOP reports the key-frame period.
func (e *EncodedVideo) GOP() int { return e.gop }

// NumElements implements media.Value.
func (e *EncodedVideo) NumElements() int { return len(e.frames) }

// NumFrames reports the frame count.
func (e *EncodedVideo) NumFrames() int { return len(e.frames) }

// Element implements media.Value.
func (e *EncodedVideo) Element(w avtime.WorldTime) (media.Element, error) {
	return e.ElementAt(e.WorldToObject(w))
}

// ElementAt implements media.Value.
func (e *EncodedVideo) ElementAt(o avtime.ObjectTime) (media.Element, error) {
	if o < 0 || int(o) >= len(e.frames) {
		return nil, fmt.Errorf("%w: encoded frame %d of %d", media.ErrOutOfRange, o, len(e.frames))
	}
	return e.frames[o], nil
}

// FrameData returns the encoded payload of frame i.
func (e *EncodedVideo) FrameData(i int) (*EncodedFrame, error) {
	if i < 0 || i >= len(e.frames) {
		return nil, fmt.Errorf("%w: encoded frame %d of %d", media.ErrOutOfRange, i, len(e.frames))
	}
	return e.frames[i], nil
}

// Size implements media.Value: total encoded bytes.
func (e *EncodedVideo) Size() int64 {
	var n int64
	for _, f := range e.frames {
		n += f.Size()
	}
	return n
}

// RawSize reports the size the value would occupy uncompressed.
func (e *EncodedVideo) RawSize() int64 {
	return int64(e.width) * int64(e.height) * int64(e.depth) / 8 * int64(len(e.frames))
}

// CompressionRatio reports raw size over encoded size.
func (e *EncodedVideo) CompressionRatio() float64 {
	s := e.Size()
	if s == 0 {
		return 0
	}
	return float64(e.RawSize()) / float64(s)
}

// String describes the encoded value.
func (e *EncodedVideo) String() string {
	return fmt.Sprintf("%s %dx%dx%d, %d frames, %.1f:1", e.Type().Name, e.width, e.height, e.depth, len(e.frames), e.CompressionRatio())
}
