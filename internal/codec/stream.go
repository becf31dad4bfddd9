package codec

import (
	"fmt"

	"avdb/internal/media"
)

// VideoStreamEncoder compresses frames one at a time, the form a video
// encoder activity needs: state (the inter-frame reference) lives in the
// encoder, and each call yields one EncodedFrame.
type VideoStreamEncoder struct {
	quant, gop           int
	width, height, depth int // learned from the first frame
	count                int
	ref                  []byte // quantized previous frame (inter mode)
	out                  []byte // scratch a frame is packed into before its exact-size copy
}

// NewIntraStreamEncoder returns a streaming intra-frame (JPEG-style)
// encoder.
func NewIntraStreamEncoder(quant int) (*VideoStreamEncoder, error) {
	if err := checkQuant(quant); err != nil {
		return nil, err
	}
	return &VideoStreamEncoder{quant: quant, gop: 1}, nil
}

// NewInterStreamEncoder returns a streaming inter-frame (MPEG-style)
// encoder with the given key-frame period.
func NewInterStreamEncoder(quant, gop int) (*VideoStreamEncoder, error) {
	if err := checkQuant(quant); err != nil {
		return nil, err
	}
	if gop < 1 {
		return nil, fmt.Errorf("codec: GOP %d must be >= 1", gop)
	}
	return &VideoStreamEncoder{quant: quant, gop: gop}, nil
}

// EncodeFrame compresses one frame.  All frames of a stream must share
// one geometry.
func (e *VideoStreamEncoder) EncodeFrame(f *media.Frame) (*EncodedFrame, error) {
	if e.count == 0 {
		e.width, e.height, e.depth = f.Width, f.Height, f.Depth
	} else if f.Width != e.width || f.Height != e.height || f.Depth != e.depth {
		return nil, fmt.Errorf("codec: frame geometry changed mid-stream: %dx%dx%d -> %dx%dx%d",
			e.width, e.height, e.depth, f.Width, f.Height, f.Depth)
	}
	return e.encode(f.Pix), nil
}

// encode compresses the stream's next frame from its pixel bytes into
// an EncodedFrame of its own.
func (e *VideoStreamEncoder) encode(pix []byte) *EncodedFrame {
	var key bool
	e.out, key = e.appendFrame(e.out[:0], pix)
	return &EncodedFrame{Data: append([]byte(nil), e.out...), Key: key}
}

// appendFrame appends the coding of the stream's next frame to dst and
// reports whether it is a key frame: one every gop-th call, predicted
// from the retained reference between.
func (e *VideoStreamEncoder) appendFrame(dst, pix []byte) ([]byte, bool) {
	key := e.count%e.gop == 0
	if e.gop > 1 && len(e.ref) != len(pix) {
		e.ref = make([]byte, len(pix))
	}
	var ref []byte
	if !key {
		ref = e.ref
	}
	e.count++
	return pack(dst, pix, ref, e.ref, e.quant), key
}

// Reset returns the encoder to its initial state (the next frame is a
// key frame and may have new geometry).
func (e *VideoStreamEncoder) Reset() { e.count = 0 }

// VideoStreamDecoder reconstructs frames from a stream of EncodedFrames
// produced by a VideoStreamEncoder with the same parameters.
type VideoStreamDecoder struct {
	quant                int
	width, height, depth int
	// frames are the two scratch frames the decoder reconstructs into in
	// turn: frames[cur] is the last decoded frame, the reference of the
	// next, which is built in the other; a failed decode leaves cur as
	// it was.
	frames [2]*media.Frame
	cur    int
	primed bool // frames[cur] holds a frame
}

// NewVideoStreamDecoder returns a decoder for streams of the given
// geometry and quantization.
func NewVideoStreamDecoder(width, height, depth, quant int) (*VideoStreamDecoder, error) {
	if err := checkQuant(quant); err != nil {
		return nil, err
	}
	if width <= 0 || height <= 0 || depth <= 0 || depth%8 != 0 {
		return nil, fmt.Errorf("codec: invalid decoder geometry %dx%dx%d", width, height, depth)
	}
	return &VideoStreamDecoder{quant: quant, width: width, height: height, depth: depth}, nil
}

// Decode reconstructs one frame into a scratch frame the decoder owns:
// it is valid until the next Decode, so a consumer that keeps it longer
// keeps its Keep().  A non-key frame before any key frame is an error.
// A frame that fails to decode leaves the decoder's state untouched: the
// next frame is predicted from the last good one.
func (d *VideoStreamDecoder) Decode(ef *EncodedFrame) (*media.Frame, error) {
	var ref []byte
	if !ef.Key {
		if !d.primed {
			return nil, fmt.Errorf("codec: predicted frame received before any key frame")
		}
		ref = d.frames[d.cur].Pix
	}
	next := d.frames[1-d.cur]
	if next == nil {
		next = media.NewScratchFrame(d.width, d.height, d.depth)
		d.frames[1-d.cur] = next
	}
	if err := unpack(next.Pix, ef.Data, ref, d.quant); err != nil {
		return nil, err
	}
	d.cur = 1 - d.cur
	d.primed = true
	return next, nil
}

// DecodeFrame reconstructs one frame, as Decode does, into a frame the
// caller owns.
func (d *VideoStreamDecoder) DecodeFrame(ef *EncodedFrame) (*media.Frame, error) {
	f, err := d.Decode(ef)
	if err != nil {
		return nil, err
	}
	return f.Clone(), nil
}

// Reset drops the reference frame.
func (d *VideoStreamDecoder) Reset() { d.primed = false }
