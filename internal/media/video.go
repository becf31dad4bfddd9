package media

import (
	"fmt"

	"avdb/internal/avtime"
)

// Frame is a raster video frame: Depth bits per pixel, rows packed
// top-to-bottom into Pix.  Only byte-aligned depths (8, 16, 24, 32) are
// used; Pix holds Width*Height*Depth/8 bytes.
//
// A frame from NewScratchFrame is reused by its producer: it is
// overwritten once the tick that delivered it is over.  A consumer that
// retains a frame past its tick retains Keep's result instead.
type Frame struct {
	Width, Height, Depth int
	Pix                  []byte
	scratch              bool
}

// NewFrame allocates a zeroed frame.
func NewFrame(w, h, depth int) *Frame {
	if w <= 0 || h <= 0 || depth <= 0 || depth%8 != 0 {
		panic(fmt.Sprintf("media: invalid frame geometry %dx%dx%d", w, h, depth))
	}
	return &Frame{Width: w, Height: h, Depth: depth, Pix: make([]byte, w*h*depth/8)}
}

// NewScratchFrame allocates a zeroed frame its producer will reuse.
func NewScratchFrame(w, h, depth int) *Frame {
	f := NewFrame(w, h, depth)
	f.scratch = true
	return f
}

// Keep returns a frame that stays as it is: a copy of a scratch frame,
// any other frame itself.
func (f *Frame) Keep() *Frame {
	if f.scratch {
		return f.Clone()
	}
	return f
}

// Size reports the frame's byte size.
func (f *Frame) Size() int64 { return int64(len(f.Pix)) }

// BytesPerPixel reports the pixel stride in bytes.
func (f *Frame) BytesPerPixel() int { return f.Depth / 8 }

// At returns the first byte of the pixel at (x, y).  For multi-byte
// depths use PixelOffset with direct Pix access.
func (f *Frame) At(x, y int) byte {
	return f.Pix[f.PixelOffset(x, y)]
}

// Set stores v in the first byte of the pixel at (x, y).
func (f *Frame) Set(x, y int, v byte) {
	f.Pix[f.PixelOffset(x, y)] = v
}

// PixelOffset reports the index into Pix of the pixel at (x, y).
func (f *Frame) PixelOffset(x, y int) int {
	if x < 0 || x >= f.Width || y < 0 || y >= f.Height {
		panic(fmt.Sprintf("media: pixel (%d,%d) outside %dx%d frame", x, y, f.Width, f.Height))
	}
	return (y*f.Width + x) * f.BytesPerPixel()
}

// Clone returns a deep copy of the frame, owned by the caller.
func (f *Frame) Clone() *Frame {
	c := *f
	c.Pix = make([]byte, len(f.Pix))
	copy(c.Pix, f.Pix)
	c.scratch = false
	return &c
}

// Equal reports whether two frames have identical geometry and pixels.
func (f *Frame) Equal(o *Frame) bool {
	if f.Width != o.Width || f.Height != o.Height || f.Depth != o.Depth {
		return false
	}
	if len(f.Pix) != len(o.Pix) {
		return false
	}
	for i := range f.Pix {
		if f.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// VideoValue is the paper's VideoValue class: width, height, depth and a
// sequence of raster frames.  The zero value is not usable; construct with
// NewVideoValue.
type VideoValue struct {
	Base
	width, height, depth int
	frames               []*Frame
}

var _ Value = (*VideoValue)(nil)

// NewVideoValue returns an empty video value of the given geometry and
// media data type.  The type must be a video type; its rate drives the
// value's world/object transform.
func NewVideoValue(typ *Type, w, h, depth int) *VideoValue {
	if typ.Kind != KindVideo {
		panic(fmt.Sprintf("media: NewVideoValue with %s type %q", typ.Kind, typ.Name))
	}
	if w <= 0 || h <= 0 || depth <= 0 || depth%8 != 0 {
		panic(fmt.Sprintf("media: invalid video geometry %dx%dx%d", w, h, depth))
	}
	v := &VideoValue{width: w, height: h, depth: depth}
	v.Base = NewBase(typ, func() int { return len(v.frames) })
	return v
}

// Width reports the frame width in pixels.
func (v *VideoValue) Width() int { return v.width }

// Height reports the frame height in pixels.
func (v *VideoValue) Height() int { return v.height }

// Depth reports the bits per pixel.
func (v *VideoValue) Depth() int { return v.depth }

// NumFrames reports the number of frames (the paper's numFrame attribute).
func (v *VideoValue) NumFrames() int { return len(v.frames) }

// NumElements implements Value.
func (v *VideoValue) NumElements() int { return len(v.frames) }

// AppendFrame appends a frame.  The frame must match the value's geometry.
func (v *VideoValue) AppendFrame(f *Frame) error {
	if f.Width != v.width || f.Height != v.height || f.Depth != v.depth {
		return fmt.Errorf("media: frame %dx%dx%d does not match value %dx%dx%d",
			f.Width, f.Height, f.Depth, v.width, v.height, v.depth)
	}
	v.frames = append(v.frames, f)
	return nil
}

// Frame returns frame i.
func (v *VideoValue) Frame(i int) (*Frame, error) {
	if i < 0 || i >= len(v.frames) {
		return nil, fmt.Errorf("%w: frame %d of %d", ErrOutOfRange, i, len(v.frames))
	}
	return v.frames[i], nil
}

// Element implements Value, returning the frame presented at world time w.
func (v *VideoValue) Element(w avtime.WorldTime) (Element, error) {
	i, err := v.objectIndex(w)
	if err != nil {
		return nil, err
	}
	return v.frames[i], nil
}

// ElementAt implements Value.
func (v *VideoValue) ElementAt(o avtime.ObjectTime) (Element, error) {
	i, err := v.checkIndex(o)
	if err != nil {
		return nil, err
	}
	return v.frames[i], nil
}

// Size implements Value.
func (v *VideoValue) Size() int64 {
	var n int64
	for _, f := range v.frames {
		n += f.Size()
	}
	return n
}

// Segment returns a new value sharing frames [i, j) with v.  Segments are
// how editing applications address portions of stored material without
// copying (logical data sharing through aggregation, §2).
func (v *VideoValue) Segment(i, j int) (*VideoValue, error) {
	if i < 0 || j < i || j > len(v.frames) {
		return nil, fmt.Errorf("%w: segment [%d,%d) of %d", ErrOutOfRange, i, j, len(v.frames))
	}
	s := NewVideoValue(v.typ, v.width, v.height, v.depth)
	s.frames = v.frames[i:j:j]
	return s, nil
}

// Equal reports whether two values have identical geometry, type and
// frame contents.
func (v *VideoValue) Equal(o *VideoValue) bool {
	if v.typ != o.typ || v.width != o.width || v.height != o.height || v.depth != o.depth {
		return false
	}
	if len(v.frames) != len(o.frames) {
		return false
	}
	for i := range v.frames {
		if !v.frames[i].Equal(o.frames[i]) {
			return false
		}
	}
	return true
}

// String describes the value, e.g. "video/raw30 320x240x8, 90 frames".
func (v *VideoValue) String() string {
	return fmt.Sprintf("%s %dx%dx%d, %d frames", v.typ.Name, v.width, v.height, v.depth, len(v.frames))
}
