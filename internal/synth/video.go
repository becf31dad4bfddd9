// Package synth is the capture substrate of the platform: it produces
// the digital audio and video material a 1993 studio would have captured
// from cameras, microphones and MIDI instruments.  Video comes from test
// patterns and a small animation renderer ("rendering video frames from
// animation data"); audio comes from tone generators and a MIDI
// synthesizer ("synthesizing digital audio from MIDI data"); subtitle
// tracks come from a timed-text generator.
//
// All generators are deterministic in their seeds so that every
// experiment in the repository is reproducible.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// Pattern selects a video test pattern.
type Pattern int

// The video test patterns.
const (
	// PatternGradient is a static horizontal luminance ramp.
	PatternGradient Pattern = iota
	// PatternBars is static vertical bars in the spirit of SMPTE color
	// bars.
	PatternBars
	// PatternMotion is a gradient with a bright block orbiting the frame
	// — smooth content with localized motion, the friendliest case for
	// inter-frame coding.
	PatternMotion
	// PatternNoise is seeded white noise, the adversarial case for every
	// codec.
	PatternNoise
	// PatternChecker is a phase-animated checkerboard: full-frame motion.
	PatternChecker
)

var patternNames = [...]string{
	PatternGradient: "gradient",
	PatternBars:     "bars",
	PatternMotion:   "motion",
	PatternNoise:    "noise",
	PatternChecker:  "checker",
}

// String returns the pattern's name.
func (p Pattern) String() string {
	if p < 0 || int(p) >= len(patternNames) {
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
	return patternNames[p]
}

// Video generates frames of the given pattern.  Depth 8 produces
// luminance frames; deeper formats repeat the luminance across bytes.
func Video(typ *media.Type, pattern Pattern, w, h, depth, frames int, seed int64) *media.VideoValue {
	v := media.NewVideoValue(typ, w, h, depth)
	rng := rand.New(rand.NewSource(seed))
	bpp := depth / 8
	for i := 0; i < frames; i++ {
		f := media.NewFrame(w, h, depth)
		renderPattern(f, pattern, i, w, h, bpp, rng)
		if err := v.AppendFrame(f); err != nil {
			panic(err) // geometry is ours; cannot mismatch
		}
	}
	return v
}

func renderPattern(f *media.Frame, pattern Pattern, frame, w, h, bpp int, rng *rand.Rand) {
	stride := w * bpp
	switch pattern {
	case PatternGradient, PatternMotion:
		for x := 0; x < w; x++ {
			fill(f.Pix[x*bpp:(x+1)*bpp], byte(x*255/w))
		}
		copyRows(f.Pix, stride)
		if pattern == PatternGradient {
			return
		}
		// A block orbiting the frame center, clipped to the frame.
		side := max(4, w/8)
		angle := float64(frame) * 2 * math.Pi / 60
		cx := w/2 + int(float64(w)/3*math.Cos(angle))
		cy := h/2 + int(float64(h)/3*math.Sin(angle))
		x0, x1 := max(0, cx-side/2), min(w, cx+side/2)
		for y := max(0, cy-side/2); y < min(h, cy+side/2) && x0 < x1; y++ {
			fill(f.Pix[y*stride+x0*bpp:y*stride+x1*bpp], 255)
		}
	case PatternBars:
		bars := []byte{235, 209, 184, 158, 133, 107, 82, 16}
		for x := 0; x < w; x++ {
			fill(f.Pix[x*bpp:(x+1)*bpp], bars[x*len(bars)/w])
		}
		copyRows(f.Pix, stride)
	case PatternNoise:
		rng.Read(f.Pix)
	case PatternChecker:
		// Rows change only where a cell band starts; the rest repeat the
		// row above.
		cell := max(2, w/16)
		phase := frame % (2 * cell)
		for y := 0; y < h; y++ {
			line := f.Pix[y*stride : (y+1)*stride]
			if y%cell != 0 {
				copy(line, f.Pix[(y-1)*stride:])
				continue
			}
			for x := 0; x < w; x++ {
				v := byte(32)
				if ((x+phase)/cell+y/cell)%2 == 0 {
					v = 224
				}
				fill(line[x*bpp:(x+1)*bpp], v)
			}
		}
	}
}

// fill sets every byte of p to v.
func fill(p []byte, v byte) {
	for i := range p {
		p[i] = v
	}
}

// copyRows repeats pix's first row, stride bytes long, down every later
// row, doubling the copied span each pass.
func copyRows(pix []byte, stride int) {
	for n := stride; n < len(pix); n *= 2 {
		copy(pix[n:], pix[:n])
	}
}

// Ball is one body of an animation scene.
type Ball struct {
	X, Y   float64 // position in pixels
	VX, VY float64 // velocity in pixels per frame
	R      float64 // radius in pixels
	Shade  byte
}

// Animation is a minimal scene description: bodies bouncing in a box.
// It stands in for the paper's "animation data" from which video frames
// are rendered on demand.
type Animation struct {
	W, H  int
	Balls []Ball
}

// NewAnimation returns a scene with n seeded bouncing balls.
func NewAnimation(w, h, n int, seed int64) *Animation {
	rng := rand.New(rand.NewSource(seed))
	a := &Animation{W: w, H: h}
	for i := 0; i < n; i++ {
		r := float64(min(w, h)) / 10 * (0.5 + rng.Float64())
		a.Balls = append(a.Balls, Ball{
			X:     r + rng.Float64()*(float64(w)-2*r),
			Y:     r + rng.Float64()*(float64(h)-2*r),
			VX:    (rng.Float64() - 0.5) * float64(w) / 15,
			VY:    (rng.Float64() - 0.5) * float64(h) / 15,
			R:     r,
			Shade: byte(96 + rng.Intn(160)),
		})
	}
	return a
}

// Render advances the scene by one frame and rasterizes it.
func (a *Animation) Render(depth int) *media.Frame {
	f := media.NewFrame(a.W, a.H, depth)
	bpp := depth / 8
	for i := range a.Balls {
		b := &a.Balls[i]
		b.X += b.VX
		b.Y += b.VY
		if b.X < b.R || b.X > float64(a.W)-b.R {
			b.VX = -b.VX
			b.X += 2 * b.VX
		}
		if b.Y < b.R || b.Y > float64(a.H)-b.R {
			b.VY = -b.VY
			b.Y += 2 * b.VY
		}
	}
	// Paint each ball over its bounding box clipped to the frame, last to
	// first, so the first ball that covers a pixel is painted last.
	for i := len(a.Balls) - 1; i >= 0; i-- {
		b := a.Balls[i]
		r := math.Abs(b.R) // the test squares R, so a negative R paints too
		x0, x1 := math.Max(0, math.Floor(b.X-r)), math.Min(float64(a.W), math.Ceil(b.X+r)+1)
		y0, y1 := math.Max(0, math.Floor(b.Y-r)), math.Min(float64(a.H), math.Ceil(b.Y+r)+1)
		if !(x0 < x1 && y0 < y1) { // also skips a NaN position or radius
			continue
		}
		for y := int(y0); y < int(y1); y++ {
			for x := int(x0); x < int(x1); x++ {
				dx, dy := float64(x)-b.X, float64(y)-b.Y
				if dx*dx+dy*dy <= b.R*b.R {
					off := (y*a.W + x) * bpp
					fill(f.Pix[off:off+bpp], b.Shade)
				}
			}
		}
	}
	return f
}

// RenderVideo renders a sequence of frames from the animation.
func (a *Animation) RenderVideo(typ *media.Type, depth, frames int) *media.VideoValue {
	v := media.NewVideoValue(typ, a.W, a.H, depth)
	for i := 0; i < frames; i++ {
		if err := v.AppendFrame(a.Render(depth)); err != nil {
			panic(err)
		}
	}
	return v
}

// Subtitles builds a text stream from lines shown back to back, each for
// perLineTicks ticks (milliseconds) with a one-tick gap.
func Subtitles(lines []string, perLineTicks int64) (*media.TextStreamValue, error) {
	if perLineTicks <= 1 {
		return nil, fmt.Errorf("synth: per-line duration %d too short", perLineTicks)
	}
	total := perLineTicks * int64(len(lines))
	v := media.NewTextStreamValue(avtime.ObjectTime(total))
	for i, line := range lines {
		cue := media.Cue{
			At:   avtime.ObjectTime(int64(i) * perLineTicks),
			Dur:  avtime.ObjectTime(perLineTicks - 1),
			Text: line,
		}
		if err := v.AddCue(cue); err != nil {
			return nil, err
		}
	}
	return v, nil
}
