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

// Quant reports the encoder's quantization parameter.
func (e *VideoStreamEncoder) Quant() int { return e.quant }

// GOP reports the key-frame period.
func (e *VideoStreamEncoder) GOP() int { return e.gop }

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

// encode compresses the stream's next frame from its pixel bytes: a key
// frame every gop-th call, predicted from the retained reference between.
func (e *VideoStreamEncoder) encode(pix []byte) *EncodedFrame {
	key := e.count%e.gop == 0
	if e.gop > 1 && len(e.ref) != len(pix) {
		e.ref = make([]byte, len(pix))
	}
	var ref []byte
	if !key {
		ref = e.ref
	}
	e.out = pack(e.out[:0], pix, ref, e.ref, e.quant)
	e.count++
	return &EncodedFrame{Data: append([]byte(nil), e.out...), Key: key}
}

// Reset returns the encoder to its initial state (the next frame is a
// key frame and may have new geometry).
func (e *VideoStreamEncoder) Reset() { e.count = 0 }

// VideoStreamDecoder reconstructs frames from a stream of EncodedFrames
// produced by a VideoStreamEncoder with the same parameters.
type VideoStreamDecoder struct {
	quant                int
	width, height, depth int
	// ref is the last reconstructed frame in the quantized domain, next
	// the buffer the following one is built in; a decoded frame swaps
	// them, a failed one leaves ref as it was.
	ref, next []byte
	primed    bool // ref holds a frame
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

// DecodeFrame reconstructs one frame.  A non-key frame before any key
// frame is an error.  A frame that fails to decode leaves the decoder's
// state untouched: the next frame is predicted from the last good one.
func (d *VideoStreamDecoder) DecodeFrame(ef *EncodedFrame) (*media.Frame, error) {
	if err := d.advance(ef); err != nil {
		return nil, err
	}
	return d.frame(), nil
}

// advance reconstructs ef in the quantized domain and makes it the
// reference.
func (d *VideoStreamDecoder) advance(ef *EncodedFrame) error {
	var ref []byte
	if !ef.Key {
		if !d.primed {
			return fmt.Errorf("codec: predicted frame received before any key frame")
		}
		ref = d.ref
	}
	if d.next == nil {
		n := d.width * d.height * d.depth / 8
		d.ref, d.next = make([]byte, n), make([]byte, n)
	}
	if err := unpack(d.next, ef.Data, ref); err != nil {
		return err
	}
	d.ref, d.next = d.next, d.ref
	d.primed = true
	return nil
}

// frame returns the reference frame as pixels.
func (d *VideoStreamDecoder) frame() *media.Frame {
	f := media.NewFrame(d.width, d.height, d.depth)
	dequantizeInto(f.Pix, d.ref, d.quant)
	return f
}

// Reset drops the reference frame.
func (d *VideoStreamDecoder) Reset() { d.primed = false }
