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
