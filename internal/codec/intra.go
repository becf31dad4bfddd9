package codec

import (
	"fmt"

	"avdb/internal/media"
)

// Intra is an intra-frame video codec in the JPEG mold: every frame is
// independently decodable.  Each frame is quantized (Quant low bits
// dropped), predictively transformed (delta against the previous byte) and
// run-length coded.  Quant 0 is lossless; Quant q bounds the per-byte
// reconstruction error by 2^(q-1).
type Intra struct {
	CodecName string
	Typ       *media.Type
	Quant     int // bits of precision dropped, 0..7
}

// JPEG is the default intra-frame codec ("JPEG-Videovalue").
var JPEG = RegisterVideoCodec(&Intra{CodecName: "jpeg-sim", Typ: TypeJPEGVideo, Quant: 2})

// Name implements VideoCodec.
func (c *Intra) Name() string { return c.CodecName }

// Encode implements VideoCodec.
func (c *Intra) Encode(v *media.VideoValue) (*EncodedVideo, error) {
	if err := checkQuant(c.Quant); err != nil {
		return nil, err
	}
	e := newEncodedVideo(c.Typ, c.CodecName, v.Width(), v.Height(), v.Depth(), c.Quant, 1, 0)
	e.encodeFrames(v, (*VideoStreamEncoder).appendFrame)
	return e, nil
}

// Decode implements VideoCodec.
func (c *Intra) Decode(e *EncodedVideo) (*media.VideoValue, error) {
	return e.decodeFrames(func(_ *VideoStreamDecoder, i int) (*media.Frame, error) { return c.DecodeFrame(e, i) })
}

// DecodeFrame implements VideoCodec.  Intra frames decode independently.
func (c *Intra) DecodeFrame(e *EncodedVideo, i int) (*media.Frame, error) {
	ef, err := e.FrameData(i)
	if err != nil {
		return nil, err
	}
	f := media.NewFrame(e.width, e.height, e.depth)
	if err := decodeIntraFrame(f.Pix, ef.Data, e.quant); err != nil {
		return nil, fmt.Errorf("codec: frame %d: %w", i, err)
	}
	return f, nil
}

func checkQuant(q int) error {
	if q < 0 || q > 7 {
		return fmt.Errorf("codec: quantization %d outside 0..7", q)
	}
	return nil
}

// decodeIntraFrame reconstructs an intra-coded frame into pix, which must
// have the frame's exact length.
func decodeIntraFrame(pix, data []byte, q int) error {
	return unpack(pix, data, nil, q)
}

// DVI is a coarse intra-frame production codec ("DVI-Videovalue"): frames
// are 2×2 box-downsampled before intra coding and nearest-neighbor
// upsampled on decode.  It compresses roughly 4× harder than the JPEG
// codec at correspondingly lower quality, standing in for DVI's
// production-level video mode.
type DVI struct {
	Quant int
}

// DVICodec is the registered DVI-style codec.
var DVICodec = RegisterVideoCodec(&DVI{Quant: 2})

// Name implements VideoCodec.
func (c *DVI) Name() string { return "dvi-sim" }

// Encode implements VideoCodec.
func (c *DVI) Encode(v *media.VideoValue) (*EncodedVideo, error) {
	if err := checkQuant(c.Quant); err != nil {
		return nil, err
	}
	e := newEncodedVideo(TypeDVIVideo, c.Name(), v.Width(), v.Height(), v.Depth(), c.Quant, 1, 0)
	e.encodeFrames(v, func(enc *VideoStreamEncoder, dst, pix []byte) ([]byte, bool) {
		return enc.appendFrame(dst, downsample2(pix, e.width, e.height, e.depth/8))
	})
	return e, nil
}

// Decode implements VideoCodec.
func (c *DVI) Decode(e *EncodedVideo) (*media.VideoValue, error) {
	return e.decodeFrames(func(_ *VideoStreamDecoder, i int) (*media.Frame, error) { return c.DecodeFrame(e, i) })
}

// DecodeFrame implements VideoCodec.
func (c *DVI) DecodeFrame(e *EncodedVideo, i int) (*media.Frame, error) {
	ef, err := e.FrameData(i)
	if err != nil {
		return nil, err
	}
	bpp := e.depth / 8
	sw, sh := (e.width+1)/2, (e.height+1)/2
	small := make([]byte, sw*sh*bpp)
	if err := decodeIntraFrame(small, ef.Data, e.quant); err != nil {
		return nil, fmt.Errorf("codec: frame %d: %w", i, err)
	}
	f := media.NewFrame(e.width, e.height, e.depth)
	upsample2(f.Pix, small, e.width, e.height, bpp)
	return f, nil
}

// downsample2 box-filters pix (w×h, bpp bytes per pixel) by 2 in each
// dimension, returning the ceil(w/2)×ceil(h/2) result.
func downsample2(pix []byte, w, h, bpp int) []byte {
	sw, sh := (w+1)/2, (h+1)/2
	out := make([]byte, sw*sh*bpp)
	for sy := 0; sy < sh; sy++ {
		for sx := 0; sx < sw; sx++ {
			for b := 0; b < bpp; b++ {
				var sum, n int
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						x, y := sx*2+dx, sy*2+dy
						if x < w && y < h {
							sum += int(pix[(y*w+x)*bpp+b])
							n++
						}
					}
				}
				out[(sy*sw+sx)*bpp+b] = byte(sum / n)
			}
		}
	}
	return out
}

// upsample2 nearest-neighbor expands small (ceil(w/2)×ceil(h/2)) into pix
// (w×h).
func upsample2(pix, small []byte, w, h, bpp int) {
	sw := (w + 1) / 2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			src := ((y/2)*sw + x/2) * bpp
			dst := (y*w + x) * bpp
			copy(pix[dst:dst+bpp], small[src:src+bpp])
		}
	}
}

// upsample2Linear bilinearly expands small (ceil(w/2)×ceil(h/2)) into pix
// (w×h).  It is the prediction filter of the scalable codec: against a
// linear interpolant the residuals of smooth content are near zero, which
// the run-length stage collapses.
func upsample2Linear(pix, small []byte, w, h, bpp int) {
	sw, sh := (w+1)/2, (h+1)/2
	sample := func(sx, sy, b int) int {
		if sx < 0 {
			sx = 0
		}
		if sx >= sw {
			sx = sw - 1
		}
		if sy < 0 {
			sy = 0
		}
		if sy >= sh {
			sy = sh - 1
		}
		return int(small[(sy*sw+sx)*bpp+b])
	}
	for y := 0; y < h; y++ {
		// Destination pixel center y+0.5 maps to source (y+0.5)/2 - 0.5 =
		// (y-0.5)/2; in fixed point quarters: fy = (2y-1) quarter-units.
		fy := 2*y - 1
		sy0 := floorDiv(fy, 4)
		ty := fy - 4*sy0 // 0..3 quarters
		for x := 0; x < w; x++ {
			fx := 2*x - 1
			sx0 := floorDiv(fx, 4)
			tx := fx - 4*sx0
			for b := 0; b < bpp; b++ {
				v00 := sample(sx0, sy0, b)
				v10 := sample(sx0+1, sy0, b)
				v01 := sample(sx0, sy0+1, b)
				v11 := sample(sx0+1, sy0+1, b)
				top := v00*(4-tx) + v10*tx
				bot := v01*(4-tx) + v11*tx
				pix[(y*w+x)*bpp+b] = byte((top*(4-ty) + bot*ty + 8) / 16)
			}
		}
	}
}

// floorDiv divides rounding toward negative infinity.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
