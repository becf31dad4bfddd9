package media_test

import (
	"fmt"

	"avdb/internal/media"
)

// How a raw value was degraded before the resampling view: core's
// RetrieveAtQuality copied every keep-th frame into a new value, then
// resizeVideo resampled every frame of that copy.  Both are kept verbatim
// (the loop lifted into refDropFrames) as the oracle of the differential
// and fuzz tests in resample_test.go; nothing outside tests may call them.

func refDropFrames(stored *media.VideoValue, keep int) (*media.VideoValue, error) {
	sub := media.NewVideoValue(stored.Type(), stored.Width(), stored.Height(), stored.Depth())
	for i := 0; i < stored.NumFrames(); i += keep {
		f, err := stored.Frame(i)
		if err != nil {
			return nil, err
		}
		if err := sub.AppendFrame(f); err != nil {
			return nil, err
		}
	}
	return sub, nil
}

// resizeVideo nearest-neighbor resamples every frame.
func resizeVideo(v *media.VideoValue, w, h int) (*media.VideoValue, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("core: invalid resize target %dx%d", w, h)
	}
	out := media.NewVideoValue(media.TypeRawVideo30, w, h, v.Depth())
	bpp := v.Depth() / 8
	// Output column x shows source column x*W/w.  Walking x, that quotient
	// grows by step and its remainder by frac, carrying at w: no division
	// per pixel, and nothing allocated per call.
	step, frac := v.Width()/w*bpp, v.Width()%w
	stride := w * bpp
	for i := 0; i < v.NumFrames(); i++ {
		src, err := v.Frame(i)
		if err != nil {
			return nil, err
		}
		dst := media.NewFrame(w, h, v.Depth())
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
		if err := out.AppendFrame(dst); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refResample is the old degradation path end to end: drop frames, then
// resize when the geometry differs.
func refResample(v *media.VideoValue, w, h, keep int) (*media.VideoValue, error) {
	out := v
	if keep > 1 {
		var err error
		if out, err = refDropFrames(v, keep); err != nil {
			return nil, err
		}
	}
	if out.Width() != w || out.Height() != h {
		return resizeVideo(out, w, h)
	}
	return out, nil
}
