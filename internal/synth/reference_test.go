package synth

import (
	"math"
	"math/rand"

	"avdb/internal/media"
)

// The frame kernels as they stood before they were rewritten to fill a
// row once and copy it: one setLum per pixel, each bounds-checked through
// Frame.PixelOffset, and one integer division per pixel.  They are kept
// verbatim (renamed with a ref prefix) as the oracle of the differential
// and fuzz tests in video_test.go; nothing outside tests may call them.

func refRenderPattern(f *media.Frame, pattern Pattern, frame, w, h, bpp int, rng *rand.Rand) {
	switch pattern {
	case PatternGradient:
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				refSetLum(f, x, y, bpp, byte(x*255/w))
			}
		}
	case PatternBars:
		bars := []byte{235, 209, 184, 158, 133, 107, 82, 16}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				refSetLum(f, x, y, bpp, bars[x*len(bars)/w])
			}
		}
	case PatternMotion:
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				refSetLum(f, x, y, bpp, byte(x*255/w))
			}
		}
		// A block orbiting the frame center.
		side := max(4, w/8)
		angle := float64(frame) * 2 * math.Pi / 60
		cx := w/2 + int(float64(w)/3*math.Cos(angle))
		cy := h/2 + int(float64(h)/3*math.Sin(angle))
		for dy := -side / 2; dy < side/2; dy++ {
			for dx := -side / 2; dx < side/2; dx++ {
				x, y := cx+dx, cy+dy
				if x >= 0 && x < w && y >= 0 && y < h {
					refSetLum(f, x, y, bpp, 255)
				}
			}
		}
	case PatternNoise:
		rng.Read(f.Pix)
	case PatternChecker:
		cell := max(2, w/16)
		phase := frame % (2 * cell)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := byte(32)
				if ((x+phase)/cell+y/cell)%2 == 0 {
					v = 224
				}
				refSetLum(f, x, y, bpp, v)
			}
		}
	}
}

func refSetLum(f *media.Frame, x, y, bpp int, v byte) {
	off := f.PixelOffset(x, y)
	for b := 0; b < bpp; b++ {
		f.Pix[off+b] = v
	}
}
