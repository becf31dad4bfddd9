package codec

import (
	"encoding/binary"
	"fmt"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// Scalable is a three-layer spatially scalable video codec, the paper's
// "scalable video" (§4.1, citing Lippman): a value encoded once can be
// viewed at lower quality "by ignoring some of the encoded data".
//
// Layer 0 holds a quantized quarter-resolution base; layer 1 the exact
// half-resolution residual against the upsampled base; layer 2 the exact
// full-resolution residual.  Decoding all three layers is lossless;
// decoding fewer yields progressively softer frames.  DropLayers produces
// a genuinely smaller encoded value without re-encoding — the operation an
// AV database uses to serve a low-quality request from high-quality
// storage.
type Scalable struct {
	BaseQuant int // quantization of the quarter-resolution base layer
}

// ScalableCodec is the registered scalable codec.
var ScalableCodec = RegisterVideoCodec(&Scalable{BaseQuant: 2})

// NumLayers is the layer count produced by Encode.
const NumLayers = 3

// Name implements VideoCodec.
func (c *Scalable) Name() string { return "scalable-sim" }

// Encode implements VideoCodec.
func (c *Scalable) Encode(v *media.VideoValue) (*EncodedVideo, error) {
	if err := checkQuant(c.BaseQuant); err != nil {
		return nil, err
	}
	w, h, bpp := v.Width(), v.Height(), v.Depth()/8
	hw, hh := (w+1)/2, (h+1)/2
	e := newEncodedVideo(TypeScalableVideo, c.Name(), w, h, v.Depth(), c.BaseQuant, 1, NumLayers)
	e.encodeFrames(v, func(_ *VideoStreamEncoder, dst, pix []byte) ([]byte, bool) {
		half := downsample2(pix, w, h, bpp)
		quarter := downsample2(half, hw, hh, bpp)

		// Layer 0: quantized base, and the base as the decoder will see it.
		reconQ := make([]byte, len(quarter))
		dst = appendLayer(dst, quarter, nil, reconQ, c.BaseQuant)
		dequantizeInto(reconQ, reconQ, c.BaseQuant)

		// Layer 1: exact half-res residual against the upsampled base.
		predHalf := make([]byte, len(half))
		upsample2Linear(predHalf, reconQ, hw, hh, bpp)
		dst = appendLayer(dst, half, predHalf, nil, 0)

		// Layer 2: exact full-res residual against the upsampled half.
		predFull := make([]byte, len(pix))
		upsample2Linear(predFull, half, w, h, bpp)
		return appendLayer(dst, pix, predFull, nil, 0), true
	})
	return e, nil
}

// Decode implements VideoCodec, decoding with every available layer.
func (c *Scalable) Decode(e *EncodedVideo) (*media.VideoValue, error) {
	return c.DecodeLayers(e, e.layers)
}

// DecodeLayers decodes using only the first k layers of each frame.
func (c *Scalable) DecodeLayers(e *EncodedVideo, k int) (*media.VideoValue, error) {
	return e.decodeFrames(func(_ *VideoStreamDecoder, i int) (*media.Frame, error) { return c.DecodeFrameLayers(e, i, k) })
}

// DecodeFrameLayers decodes frame i using the first k of its layers.
func (c *Scalable) DecodeFrameLayers(e *EncodedVideo, i, k int) (*media.Frame, error) {
	if k < 1 {
		return nil, fmt.Errorf("codec: scalable decode needs at least 1 layer, got %d", k)
	}
	if k > e.layers {
		return nil, fmt.Errorf("codec: value has %d layers, %d requested", e.layers, k)
	}
	ef, err := e.FrameData(i)
	if err != nil {
		return nil, err
	}
	layers, err := unpackLayers(ef.Data)
	if err != nil {
		return nil, fmt.Errorf("codec: frame %d: %w", i, err)
	}
	if len(layers) < k {
		return nil, fmt.Errorf("codec: frame %d holds %d layers, %d requested", i, len(layers), k)
	}

	w, h, bpp := e.width, e.height, e.depth/8
	hw, hh := (w+1)/2, (h+1)/2
	qw, qh := (hw+1)/2, (hh+1)/2

	// Layer 0: quantized quarter-resolution base.
	quarter := make([]byte, qw*qh*bpp)
	if err := decodeIntraFrame(quarter, layers[0], e.quant); err != nil {
		return nil, fmt.Errorf("codec: frame %d layer 0: %w", i, err)
	}

	f := media.NewFrame(w, h, e.depth)
	if k == 1 {
		halfUp := make([]byte, hw*hh*bpp)
		upsample2Linear(halfUp, quarter, hw, hh, bpp)
		upsample2Linear(f.Pix, halfUp, w, h, bpp)
		return f, nil
	}

	// Layer 1: exact half resolution, the residual added in place.
	half := make([]byte, hw*hh*bpp)
	upsample2Linear(half, quarter, hw, hh, bpp)
	if err := unpack(half, layers[1], half, 0); err != nil {
		return nil, fmt.Errorf("codec: frame %d layer 1: %w", i, err)
	}
	upsample2Linear(f.Pix, half, w, h, bpp)
	if k == 2 {
		return f, nil
	}

	// Layer 2: exact full resolution.
	if err := unpack(f.Pix, layers[2], f.Pix, 0); err != nil {
		return nil, fmt.Errorf("codec: frame %d layer 2: %w", i, err)
	}
	return f, nil
}

// DropLayers returns a new encoded value containing only the first k
// layers of every frame — the "ignore some of the encoded data" operation.
// The result is smaller and still decodable at layers 1..k.
func DropLayers(e *EncodedVideo, k int) (*EncodedVideo, error) {
	if e.layers == 0 {
		return nil, fmt.Errorf("codec: DropLayers on non-scalable value %q", e.codec)
	}
	if k < 1 || k > e.layers {
		return nil, fmt.Errorf("codec: keep %d of %d layers", k, e.layers)
	}
	out := newEncodedVideo(e.Type(), e.codec, e.width, e.height, e.depth, e.quant, e.gop, k)
	out.SetTransform(e.Transform())
	for i, ef := range e.frames {
		layers, err := unpackLayers(ef.Data)
		if err != nil {
			return nil, fmt.Errorf("codec: frame %d: %w", i, err)
		}
		out.frames = append(out.frames, &EncodedFrame{Data: packLayers(layers[:k]...), Key: true})
	}
	return out, nil
}

// DropFrames returns a new encoded value keeping every keepEvery-th
// frame, with the element rate scaled down so the presentation duration
// is preserved — temporal quality scaling, the frame-rate counterpart of
// DropLayers.  It applies only to representations whose frames are all
// independently decodable (intra-coded or scalable); dropping frames from
// an inter-coded stream would orphan its predicted frames.
func DropFrames(e *EncodedVideo, keepEvery int) (*EncodedVideo, error) {
	if keepEvery < 1 {
		return nil, fmt.Errorf("codec: keepEvery %d must be >= 1", keepEvery)
	}
	for i, f := range e.frames {
		if !f.Key {
			return nil, fmt.Errorf("codec: frame %d is predicted; cannot drop frames from %q", i, e.codec)
		}
	}
	out := newEncodedVideo(e.Type(), e.codec, e.width, e.height, e.depth, e.quant, e.gop, e.layers)
	tr := e.Transform()
	tr.Rate = avtime.MakeRate(tr.Rate.N, tr.Rate.D*int64(keepEvery))
	out.SetTransform(tr)
	for i := 0; i < len(e.frames); i += keepEvery {
		out.frames = append(out.frames, e.frames[i])
	}
	return out, nil
}

// appendLayer appends one packLayers layer to dst: pack(pix, ref, keep,
// q) behind its length.
func appendLayer(dst, pix, ref, keep []byte, q int) []byte {
	n := len(dst)
	dst = pack(append(dst, 0, 0, 0, 0), pix, ref, keep, q)
	binary.BigEndian.PutUint32(dst[n:], uint32(len(dst)-n-4))
	return dst
}

// packLayers concatenates layer payloads, each preceded by a big-endian
// 32-bit length.
func packLayers(layers ...[]byte) []byte {
	var n int
	for _, l := range layers {
		n += 4 + len(l)
	}
	out := make([]byte, 0, n)
	for _, l := range layers {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(l)))
		out = append(out, hdr[:]...)
		out = append(out, l...)
	}
	return out
}

// unpackLayers splits a packLayers payload.
func unpackLayers(data []byte) ([][]byte, error) {
	var layers [][]byte
	for len(data) > 0 {
		if len(data) < 4 {
			return nil, fmt.Errorf("truncated layer header")
		}
		n := int(binary.BigEndian.Uint32(data[:4]))
		data = data[4:]
		if n > len(data) {
			return nil, fmt.Errorf("layer length %d exceeds remaining %d bytes", n, len(data))
		}
		layers = append(layers, data[:n])
		data = data[n:]
	}
	return layers, nil
}
