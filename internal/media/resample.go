package media

import (
	"fmt"

	"avdb/internal/avtime"
)

// ResampledVideo is a lower-quality view of a VideoValue: every keep-th
// source frame, at width×height.  It is how §4.1's "viewed at a lower
// quality by ignoring some of the encoded data" reaches raw values:
// nothing is resampled until a frame is read, and a frame nobody reads
// costs nothing.  The view reads its source on every access, so it
// follows later edits to the source.
//
// The view keeps its source's type and world start; its element rate is
// the source's divided by keep, so it spans the same stretch of world
// time (as codec.DropFrames does for encoded values).
type ResampledVideo struct {
	Base
	src                 *VideoValue
	width, height, keep int
}

var _ Value = (*ResampledVideo)(nil)

// Resample returns a view of v at w×h keeping every keep-th frame
// (frames 0, keep, 2·keep, …).  Frames are resampled nearest-neighbour on
// access.  It panics on a non-positive geometry or keep.
func (v *VideoValue) Resample(w, h, keep int) *ResampledVideo {
	if w <= 0 || h <= 0 || keep < 1 {
		panic(fmt.Sprintf("media: invalid resample target %dx%d keeping 1 in %d", w, h, keep))
	}
	r := &ResampledVideo{src: v, width: w, height: h, keep: keep}
	r.Base = NewBase(v.typ, r.NumElements)
	r.tr = v.tr
	r.tr.Rate = avtime.MakeRate(v.tr.Rate.N, v.tr.Rate.D*int64(keep))
	return r
}

// Width reports the view's frame width in pixels.
func (r *ResampledVideo) Width() int { return r.width }

// Height reports the view's frame height in pixels.
func (r *ResampledVideo) Height() int { return r.height }

// Depth reports the bits per pixel, the source's.
func (r *ResampledVideo) Depth() int { return r.src.depth }

// NumElements implements Value: ⌈source frames / keep⌉.
func (r *ResampledVideo) NumElements() int { return (len(r.src.frames) + r.keep - 1) / r.keep }

// frame returns view frame i, which must be in range.
func (r *ResampledVideo) frame(i int) *Frame {
	src := r.src.frames[i*r.keep]
	if r.width == r.src.width && r.height == r.src.height {
		return src
	}
	dst := NewFrame(r.width, r.height, r.src.depth)
	resample(dst, src)
	return dst
}

// Element implements Value, returning the frame presented at world time w.
func (r *ResampledVideo) Element(w avtime.WorldTime) (Element, error) {
	i, err := r.objectIndex(w)
	if err != nil {
		return nil, err
	}
	return r.frame(i), nil
}

// ElementAt implements Value.
func (r *ResampledVideo) ElementAt(o avtime.ObjectTime) (Element, error) {
	i, err := r.checkIndex(o)
	if err != nil {
		return nil, err
	}
	return r.frame(i), nil
}

// Size implements Value: the bytes the view's frames take once read.
func (r *ResampledVideo) Size() int64 {
	return int64(r.NumElements()) * int64(r.width*r.height*r.src.depth/8)
}

// Materialize resamples every frame of the view into a new VideoValue
// with the view's type and timeline.
func (r *ResampledVideo) Materialize() *VideoValue {
	out := NewVideoValue(r.typ, r.width, r.height, r.src.depth)
	out.tr = r.tr
	out.frames = make([]*Frame, r.NumElements())
	for i := range out.frames {
		out.frames[i] = r.frame(i)
	}
	return out
}

// resample fills dst with src resampled nearest-neighbour: dst pixel
// (x, y) is src pixel (x·W/w, y·H/h).  Both frames have the same depth.
func resample(dst, src *Frame) {
	w, h, bpp := dst.Width, dst.Height, dst.BytesPerPixel()
	// Output column x shows source column x*W/w.  Walking x, that quotient
	// grows by step and its remainder by frac, carrying at w: no division
	// per pixel, and nothing allocated per call.
	step, frac := src.Width/w*bpp, src.Width%w
	stride := w * bpp
	prevSy := -1
	for y := 0; y < h; y++ {
		row := dst.Pix[y*stride : (y+1)*stride]
		sy := y * src.Height / h
		if sy == prevSy {
			copy(row, dst.Pix[(y-1)*stride:y*stride])
			continue
		}
		prevSy = sy
		srow := src.Pix[sy*src.Width*bpp : (sy+1)*src.Width*bpp]
		for d, c, rem := 0, 0, 0; d < stride; d += bpp {
			for b := 0; b < bpp; b++ { // a pixel is 1-3 bytes: cheaper moved bytewise than by a copy call
				row[d+b] = srow[c+b]
			}
			c += step
			if rem += frac; rem >= w {
				rem -= w
				c += bpp
			}
		}
	}
}
