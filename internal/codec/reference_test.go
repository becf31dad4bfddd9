package codec

import (
	"fmt"

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
