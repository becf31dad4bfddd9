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
// bytes.  Other encoded representations must be transcoded: fully
// decoded, resampled and re-encoded, touching every stored byte.  A raw
// value is served as a media.ResampledVideo view, which drops and
// resamples frames only as they are read.
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
		keep := frameKeepFactor(stored.Type().Rate, q)
		resize := stored.Width() != q.Width || stored.Height() != q.Height
		if keep == 1 && !resize {
			return stored, RetrievalInfo{Method: "direct", BytesProcessed: stored.Size(), BytesOut: stored.Size()}, nil
		}
		out := stored.Resample(q.Width, q.Height, keep)
		if !resize {
			return out, RetrievalInfo{Method: "frame-drop", BytesProcessed: out.Size(), BytesOut: out.Size()}, nil
		}
		// Resizing touches each kept source frame and its resample.
		read := int64(out.NumElements()) * int64(stored.Width()*stored.Height()*stored.Depth()/8)
		return out, RetrievalInfo{Method: "transcode", BytesProcessed: read + out.Size(), BytesOut: out.Size()}, nil
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
		resized = raw.Resample(q.Width, q.Height, 1).Materialize()
	}
	out, err := c.Encode(resized)
	if err != nil {
		return nil, RetrievalInfo{}, err
	}
	touched := e.Size() + raw.Size() + resized.Size() + out.Size()
	return out, RetrievalInfo{Method: "transcode", BytesProcessed: touched, BytesOut: out.Size()}, nil
}
