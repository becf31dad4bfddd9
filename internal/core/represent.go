package core

import (
	"fmt"

	"avdb/internal/avtime"
	"avdb/internal/codec"
	"avdb/internal/media"
)

// RepresentationHints tell the database what an application needs from a
// stored video value, so the database — not the application — can pick
// the encoding: "applications should avoid explicit references to
// particular AV data representations" (§4.1).
type RepresentationHints struct {
	// RandomAccess favors an intra-coded representation, where every
	// frame decodes independently (editing workloads).
	RandomAccess bool
	// Scalable favors a layered representation servable at several
	// qualities without re-encoding.
	Scalable bool
	// Archive favors the smallest representation (inter-coded).
	Archive bool
	// Raw skips encoding entirely (capture staging).
	Raw bool
}

// ChooseVideoCodec resolves hints to a codec.  Priority: Raw (none) >
// Scalable > RandomAccess > Archive > default (inter-coded).
func ChooseVideoCodec(h RepresentationHints) (codec.VideoCodec, bool) {
	switch {
	case h.Raw:
		return nil, false
	case h.Scalable:
		return codec.ScalableCodec, true
	case h.RandomAccess:
		return codec.JPEG, true
	default:
		return codec.MPEG, true
	}
}

// ImportVideo converts captured raw video into the representation the
// hints call for, returning the value to store.
func (db *Database) ImportVideo(v *media.VideoValue, h RepresentationHints) (media.Value, error) {
	c, encode := ChooseVideoCodec(h)
	if !encode {
		return v, nil
	}
	return c.Encode(v)
}

// RetrievalInfo describes how a quality-factor retrieval was served.
type RetrievalInfo struct {
	// Method is "direct", "layer-drop" or "transcode".
	Method string
	// BytesProcessed is the data volume the database had to touch to
	// serve the request (the cost driver).
	BytesProcessed int64
	// BytesOut is the size of the produced representation.
	BytesOut int64
}

// RetrieveAtQuality serves a media value at a requested video quality
// factor.  Scalable values are served by dropping layers — "a video
// value encoded at one quality can be viewed at a lower quality by
// ignoring some of the encoded data" — which touches only the retained
// bytes.  Other representations must be transcoded: fully decoded,
// resampled and re-encoded, touching every stored byte.
func RetrieveAtQuality(v media.Value, q media.VideoQuality) (media.Value, RetrievalInfo, error) {
	if !q.Valid() {
		return nil, RetrievalInfo{}, fmt.Errorf("core: invalid quality %v", q)
	}
	switch stored := v.(type) {
	case *codec.EncodedVideo:
		if stored.Layers() > 0 || stored.GOP() == 1 {
			return serveByDropping(stored, q)
		}
		return transcodeEncoded(stored, q)
	case *media.VideoValue:
		out := stored
		method := "direct"
		if keep := frameKeepFactor(stored.Type().Rate, q); keep > 1 {
			sub := media.NewVideoValue(stored.Type(), stored.Width(), stored.Height(), stored.Depth())
			for i := 0; i < stored.NumFrames(); i += keep {
				f, err := stored.Frame(i)
				if err != nil {
					return nil, RetrievalInfo{}, err
				}
				if err := sub.AppendFrame(f); err != nil {
					return nil, RetrievalInfo{}, err
				}
			}
			out = sub
			method = "frame-drop"
		}
		if out.Width() != q.Width || out.Height() != q.Height {
			resized, err := resizeVideo(out, q.Width, q.Height)
			if err != nil {
				return nil, RetrievalInfo{}, err
			}
			return resized, RetrievalInfo{Method: "transcode", BytesProcessed: out.Size() + resized.Size(), BytesOut: resized.Size()}, nil
		}
		return out, RetrievalInfo{Method: method, BytesProcessed: out.Size(), BytesOut: out.Size()}, nil
	}
	return nil, RetrievalInfo{}, fmt.Errorf("core: cannot serve %T at a video quality", v)
}

// serveByDropping serves a request from an all-key-frame representation
// by ignoring encoded data: layers for resolution, frames for rate.
func serveByDropping(stored *codec.EncodedVideo, q media.VideoQuality) (media.Value, RetrievalInfo, error) {
	out := stored
	method := "direct"
	if stored.Layers() > 0 {
		if keep := layersFor(stored, q); keep < stored.Layers() {
			dropped, err := codec.DropLayers(stored, keep)
			if err != nil {
				return nil, RetrievalInfo{}, err
			}
			out = dropped
			method = "layer-drop"
		}
	} else if q.Width < stored.Width() || q.Height < stored.Height() {
		// An intra-coded value has no layers; resolution reduction means
		// transcoding.
		return transcodeEncoded(stored, q)
	}
	if keep := frameKeepFactor(out.Type().Rate, q); keep > 1 {
		dropped, err := codec.DropFrames(out, keep)
		if err != nil {
			return nil, RetrievalInfo{}, err
		}
		out = dropped
		if method == "direct" {
			method = "frame-drop"
		}
	}
	return out, RetrievalInfo{Method: method, BytesProcessed: out.Size(), BytesOut: out.Size()}, nil
}

// frameKeepFactor reports how many stored frames map to one requested
// frame (1 = no temporal scaling).
func frameKeepFactor(stored avtime.Rate, q media.VideoQuality) int {
	hz := stored.Hz()
	if hz <= 0 || q.FPS <= 0 || float64(q.FPS) >= hz {
		return 1
	}
	keep := int(hz / float64(q.FPS))
	if keep < 1 {
		keep = 1
	}
	return keep
}

// layersFor picks the layer count whose resolution covers the request.
func layersFor(e *codec.EncodedVideo, q media.VideoQuality) int {
	switch {
	case q.Width <= (e.Width()+3)/4 && q.Height <= (e.Height()+3)/4:
		return 1
	case q.Width <= (e.Width()+1)/2 && q.Height <= (e.Height()+1)/2:
		return 2
	default:
		return codec.NumLayers
	}
}

// transcodeEncoded fully decodes, resamples and re-encodes a
// non-scalable value — the expensive path a scalable representation
// avoids.
func transcodeEncoded(e *codec.EncodedVideo, q media.VideoQuality) (media.Value, RetrievalInfo, error) {
	c, ok := codec.LookupVideoCodec(e.Codec())
	if !ok {
		return nil, RetrievalInfo{}, fmt.Errorf("core: stored value uses unknown codec %q", e.Codec())
	}
	raw, err := c.Decode(e)
	if err != nil {
		return nil, RetrievalInfo{}, err
	}
	resized := raw
	if raw.Width() != q.Width || raw.Height() != q.Height {
		resized, err = resizeVideo(raw, q.Width, q.Height)
		if err != nil {
			return nil, RetrievalInfo{}, err
		}
	}
	out, err := c.Encode(resized)
	if err != nil {
		return nil, RetrievalInfo{}, err
	}
	touched := e.Size() + raw.Size() + resized.Size() + out.Size()
	return out, RetrievalInfo{Method: "transcode", BytesProcessed: touched, BytesOut: out.Size()}, nil
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
