package codec

import (
	"fmt"

	"avdb/internal/media"
)

// Inter is an inter-frame video codec in the MPEG mold: every GOP-th frame
// is an independently decodable key (I) frame coded like the intra codec;
// the frames between are predicted (P) frames holding only the quantized
// difference against the previous reconstructed frame.  Static or slowly
// changing video therefore compresses far better than with the intra
// codec, at the cost of random access: decoding frame i requires decoding
// forward from the nearest key frame at or before i.
//
// Prediction operates in the quantized domain, so the encoder's reference
// frame is bit-identical to the decoder's and there is no drift.
type Inter struct {
	Quant int // bits of precision dropped, 0..7
	GOPN  int // key-frame period, >= 1
}

// MPEG is the registered inter-frame codec ("MPEG-Videovalue").
var MPEG = RegisterVideoCodec(&Inter{Quant: 2, GOPN: 15})

// Name implements VideoCodec.
func (c *Inter) Name() string { return "mpeg-sim" }

// Encode implements VideoCodec.
func (c *Inter) Encode(v *media.VideoValue) (*EncodedVideo, error) {
	if err := checkQuant(c.Quant); err != nil {
		return nil, err
	}
	gop := c.GOPN
	if gop < 1 {
		return nil, fmt.Errorf("codec: GOP %d must be >= 1", gop)
	}
	e := newEncodedVideo(TypeMPEGVideo, c.Name(), v.Width(), v.Height(), v.Depth(), c.Quant, gop, 0)
	e.encodeFrames(v, (*VideoStreamEncoder).appendFrame)
	return e, nil
}

// Decode implements VideoCodec.
func (c *Inter) Decode(e *EncodedVideo) (*media.VideoValue, error) {
	return e.decodeFrames(func(d *VideoStreamDecoder, i int) (*media.Frame, error) {
		f, err := d.DecodeFrame(e.frames[i])
		if err != nil {
			return nil, fmt.Errorf("codec: frame %d: %w", i, err)
		}
		return f, nil
	})
}

// streamDecoder returns a decoder for e's frames.
func (e *EncodedVideo) streamDecoder() *VideoStreamDecoder {
	return &VideoStreamDecoder{quant: e.quant, width: e.width, height: e.height, depth: e.depth}
}
