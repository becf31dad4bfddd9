package codec

import (
	"fmt"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// The frame kernels as they stood before pack/unpack fused them: three
// passes and three frame-sized allocations per frame, one byte at a time.
// They are kept verbatim (renamed with a ref prefix, maxLiteralRun and
// maxRepeatRun spelled out) as the oracle of the differential and fuzz
// tests in kernels_test.go; nothing outside tests may call them.

const (
	refMaxLiteralRun = 128
	refMaxRepeatRun  = 128
)

// refRLEEncode appends the PackBits encoding of src to dst and returns the
// extended slice.
func refRLEEncode(dst, src []byte) []byte {
	i := 0
	for i < len(src) {
		// Measure the repeat run starting at i.
		run := 1
		for i+run < len(src) && run < refMaxRepeatRun && src[i+run] == src[i] {
			run++
		}
		if run >= minRepeatRun {
			dst = append(dst, byte(257-run), src[i])
			i += run
			continue
		}
		// Gather literals up to the next worthwhile repeat run or the
		// 128-byte literal cap.
		j := i
		for j < len(src) && j-i < refMaxLiteralRun {
			r := 1
			for j+r < len(src) && src[j+r] == src[j] {
				r++
			}
			if r >= minRepeatRun {
				break
			}
			j += r
		}
		if j-i > refMaxLiteralRun {
			j = i + refMaxLiteralRun
		}
		n := j - i
		dst = append(dst, byte(n-1))
		dst = append(dst, src[i:j]...)
		i = j
	}
	return dst
}

// refRLEDecode appends the decoding of the PackBits stream src to dst.
func refRLEDecode(dst, src []byte) ([]byte, error) {
	i := 0
	for i < len(src) {
		c := src[i]
		i++
		switch {
		case c < 128:
			n := int(c) + 1
			if i+n > len(src) {
				return nil, fmt.Errorf("codec: truncated RLE literal run (need %d bytes, have %d)", n, len(src)-i)
			}
			dst = append(dst, src[i:i+n]...)
			i += n
		case c > 128:
			if i >= len(src) {
				return nil, fmt.Errorf("codec: truncated RLE repeat run")
			}
			n := 257 - int(c)
			v := src[i]
			i++
			for k := 0; k < n; k++ {
				dst = append(dst, v)
			}
		default:
			return nil, fmt.Errorf("codec: reserved RLE control byte 128")
		}
	}
	return dst, nil
}

// refQuantize drops q low bits from every byte.
func refQuantize(pix []byte, q int) []byte {
	t := make([]byte, len(pix))
	for i, p := range pix {
		t[i] = p >> q
	}
	return t
}

// refDequantizeInto restores pixel bytes from the quantized domain with
// midpoint reconstruction.
func refDequantizeInto(pix, t []byte, q int) {
	mid := byte(0)
	if q > 0 {
		mid = 1 << (q - 1)
	}
	for i, tv := range t {
		pix[i] = tv<<q + mid
	}
}

// refDeltaRLE codes an already-quantized frame with the intra predictor.
func refDeltaRLE(t []byte) []byte {
	d := make([]byte, len(t))
	var prev byte
	for i, tv := range t {
		d[i] = tv - prev
		prev = tv
	}
	return refRLEEncode(make([]byte, 0, len(t)/4+16), d)
}

// refUndeltaRLE reverses refDeltaRLE, returning the quantized-domain frame.
func refUndeltaRLE(data []byte, n int) ([]byte, error) {
	d, err := refRLEDecode(make([]byte, 0, n), data)
	if err != nil {
		return nil, err
	}
	if len(d) != n {
		return nil, fmt.Errorf("codec: decoded %d bytes, want %d", len(d), n)
	}
	t := make([]byte, n)
	var prev byte
	for i, dv := range d {
		prev += dv
		t[i] = prev
	}
	return t, nil
}

// refStreamEncoder is VideoStreamEncoder's old EncodeFrame: quantize,
// residual, PackBits, each its own pass and allocation.
type refStreamEncoder struct {
	quant, gop, count int
	ref               []byte
}

func (e *refStreamEncoder) EncodeFrame(f *media.Frame) *EncodedFrame {
	t := refQuantize(f.Pix, e.quant)
	var out *EncodedFrame
	if e.count%e.gop == 0 {
		out = &EncodedFrame{Data: refDeltaRLE(t), Key: true}
	} else {
		resid := make([]byte, len(t))
		for k := range t {
			resid[k] = t[k] - e.ref[k]
		}
		out = &EncodedFrame{Data: refRLEEncode(make([]byte, 0, 64), resid)}
	}
	e.ref = t
	e.count++
	return out
}

// refStreamDecoder is VideoStreamDecoder's old three-pass DecodeFrame.
type refStreamDecoder struct {
	quant                int
	width, height, depth int
	ref                  []byte
}

func (d *refStreamDecoder) DecodeFrame(ef *EncodedFrame) (*media.Frame, error) {
	n := d.width * d.height * d.depth / 8
	var t []byte
	if ef.Key {
		var err error
		t, err = refUndeltaRLE(ef.Data, n)
		if err != nil {
			return nil, err
		}
	} else {
		if d.ref == nil {
			return nil, fmt.Errorf("codec: predicted frame received before any key frame")
		}
		resid, err := refRLEDecode(make([]byte, 0, n), ef.Data)
		if err != nil {
			return nil, err
		}
		if len(resid) != n {
			return nil, fmt.Errorf("codec: predicted frame decoded to %d bytes, want %d", len(resid), n)
		}
		t = make([]byte, n)
		for k := range t {
			t[k] = d.ref[k] + resid[k]
		}
	}
	d.ref = t
	f := media.NewFrame(d.width, d.height, d.depth)
	refDequantizeInto(f.Pix, t, d.quant)
	return f, nil
}

// The whole-value Encode and Decode loops of the four video codecs as they
// stood before encodeFrames and decodeFrames replaced them: one frame
// after another on the calling goroutine, each frame's bytes and struct
// their own allocations.  They are kept verbatim (methods turned into
// functions of their codec, the transform set through SetTransform) as
// the oracle of TestWholeValueCodecMatchesReference.  Their values start
// at 0 at the type's rate whatever the source's timeline: the oracle
// pins bytes, key flags, pixels and errors, not timelines.

func refIntraEncode(c *Intra, v *media.VideoValue) (*EncodedVideo, error) {
	if err := checkQuant(c.Quant); err != nil {
		return nil, err
	}
	e := newEncodedVideo(c.Typ, c.CodecName, v.Width(), v.Height(), v.Depth(), c.Quant, 1, 0)
	e.SetTransform(avtime.NewTransform(v.Type().Rate))
	enc := &VideoStreamEncoder{quant: c.Quant, gop: 1}
	for i := 0; i < v.NumFrames(); i++ {
		f, err := v.Frame(i)
		if err != nil {
			return nil, err
		}
		e.frames = append(e.frames, enc.encode(f.Pix))
	}
	return e, nil
}

func refIntraDecode(c *Intra, e *EncodedVideo) (*media.VideoValue, error) {
	v := media.NewVideoValue(media.TypeRawVideo30, e.width, e.height, e.depth)
	for i := range e.frames {
		f, err := c.DecodeFrame(e, i)
		if err != nil {
			return nil, err
		}
		if err := v.AppendFrame(f); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func refDVIEncode(c *DVI, v *media.VideoValue) (*EncodedVideo, error) {
	if err := checkQuant(c.Quant); err != nil {
		return nil, err
	}
	e := newEncodedVideo(TypeDVIVideo, c.Name(), v.Width(), v.Height(), v.Depth(), c.Quant, 1, 0)
	e.SetTransform(avtime.NewTransform(v.Type().Rate))
	bpp := v.Depth() / 8
	enc := &VideoStreamEncoder{quant: c.Quant, gop: 1}
	for i := 0; i < v.NumFrames(); i++ {
		f, err := v.Frame(i)
		if err != nil {
			return nil, err
		}
		e.frames = append(e.frames, enc.encode(downsample2(f.Pix, v.Width(), v.Height(), bpp)))
	}
	return e, nil
}

func refDVIDecode(c *DVI, e *EncodedVideo) (*media.VideoValue, error) {
	v := media.NewVideoValue(media.TypeRawVideo30, e.width, e.height, e.depth)
	for i := range e.frames {
		f, err := c.DecodeFrame(e, i)
		if err != nil {
			return nil, err
		}
		if err := v.AppendFrame(f); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func refInterEncode(c *Inter, v *media.VideoValue) (*EncodedVideo, error) {
	if err := checkQuant(c.Quant); err != nil {
		return nil, err
	}
	gop := c.GOPN
	if gop < 1 {
		return nil, fmt.Errorf("codec: GOP %d must be >= 1", gop)
	}
	e := newEncodedVideo(TypeMPEGVideo, c.Name(), v.Width(), v.Height(), v.Depth(), c.Quant, gop, 0)
	e.SetTransform(avtime.NewTransform(v.Type().Rate))

	enc := &VideoStreamEncoder{quant: c.Quant, gop: gop}
	for i := 0; i < v.NumFrames(); i++ {
		f, err := v.Frame(i)
		if err != nil {
			return nil, err
		}
		e.frames = append(e.frames, enc.encode(f.Pix))
	}
	return e, nil
}

func refInterDecode(c *Inter, e *EncodedVideo) (*media.VideoValue, error) {
	v := media.NewVideoValue(media.TypeRawVideo30, e.width, e.height, e.depth)
	d := e.streamDecoder()
	for i, ef := range e.frames {
		f, err := d.DecodeFrame(ef)
		if err != nil {
			return nil, fmt.Errorf("codec: frame %d: %w", i, err)
		}
		if err := v.AppendFrame(f); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func refScalableEncode(c *Scalable, v *media.VideoValue) (*EncodedVideo, error) {
	if err := checkQuant(c.BaseQuant); err != nil {
		return nil, err
	}
	w, h, bpp := v.Width(), v.Height(), v.Depth()/8
	hw, hh := (w+1)/2, (h+1)/2
	e := newEncodedVideo(TypeScalableVideo, c.Name(), w, h, v.Depth(), c.BaseQuant, 1, NumLayers)
	e.SetTransform(avtime.NewTransform(v.Type().Rate))

	var l0, l1, l2 []byte // per-layer scratch; packLayers copies out of it
	for i := 0; i < v.NumFrames(); i++ {
		f, err := v.Frame(i)
		if err != nil {
			return nil, err
		}
		half := downsample2(f.Pix, w, h, bpp)
		quarter := downsample2(half, hw, hh, bpp)

		// Layer 0: quantized base, and the base as the decoder will see it.
		reconQ := make([]byte, len(quarter))
		l0 = pack(l0[:0], quarter, nil, reconQ, c.BaseQuant)
		dequantizeInto(reconQ, reconQ, c.BaseQuant)

		// Layer 1: exact half-res residual against the upsampled base.
		predHalf := make([]byte, len(half))
		upsample2Linear(predHalf, reconQ, hw, hh, bpp)
		l1 = pack(l1[:0], half, predHalf, nil, 0)

		// Layer 2: exact full-res residual against the upsampled half.
		predFull := make([]byte, len(f.Pix))
		upsample2Linear(predFull, half, w, h, bpp)
		l2 = pack(l2[:0], f.Pix, predFull, nil, 0)

		e.frames = append(e.frames, &EncodedFrame{Data: packLayers(l0, l1, l2), Key: true})
	}
	return e, nil
}

func refScalableDecodeLayers(c *Scalable, e *EncodedVideo, k int) (*media.VideoValue, error) {
	v := media.NewVideoValue(media.TypeRawVideo30, e.width, e.height, e.depth)
	for i := range e.frames {
		f, err := c.DecodeFrameLayers(e, i, k)
		if err != nil {
			return nil, err
		}
		if err := v.AppendFrame(f); err != nil {
			return nil, err
		}
	}
	return v, nil
}
