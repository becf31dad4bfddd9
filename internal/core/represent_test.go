package core

import (
	"testing"

	"avdb/internal/media"
	"avdb/internal/synth"
)

// TestResizeVideoNearestNeighbor holds resizeVideo's stepped column walk
// and repeated-row copies to the definition: output pixel (x, y) is source
// pixel (x·W/w, y·H/h), whether the frame shrinks, grows or both.
func TestResizeVideoNearestNeighbor(t *testing.T) {
	for _, depth := range []int{8, 16, 24} {
		src := synth.Video(media.TypeRawVideo30, synth.PatternNoise, 13, 7, depth, 2, 5)
		bpp := depth / 8
		for _, to := range [][2]int{{13, 7}, {6, 3}, {5, 20}, {40, 30}, {1, 1}, {27, 2}} {
			w, h := to[0], to[1]
			got, err := resizeVideo(src, w, h)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < src.NumFrames(); i++ {
				sf, _ := src.Frame(i)
				gf, _ := got.Frame(i)
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						s := ((y*7/h)*13 + x*13/w) * bpp
						d := (y*w + x) * bpp
						if string(gf.Pix[d:d+bpp]) != string(sf.Pix[s:s+bpp]) {
							t.Fatalf("depth %d to %dx%d frame %d: pixel (%d,%d) is not the nearest neighbour", depth, w, h, i, x, y)
						}
					}
				}
			}
		}
	}
	if _, err := resizeVideo(synth.Video(media.TypeRawVideo30, synth.PatternBars, 4, 4, 8, 1, 1), 0, 3); err == nil {
		t.Error("zero-width target accepted")
	}
}
