package synth

import (
	"fmt"
	"math/rand"
	"testing"

	"avdb/internal/media"
)

// refGeometries is the differential grid: widths where the motion
// block's side is odd (40, 72) and even (64, 160), a single pixel, a
// frame the block overhangs on every edge (3×2), and a wide strip.
var refGeometries = [][2]int{{40, 30}, {72, 54}, {64, 48}, {160, 120}, {1, 1}, {3, 2}, {200, 7}}

// refFrames covers more than two turns of the motion orbit (60 frames)
// and several checker phase cycles (2·cell frames, at most 24 here).
const refFrames = 130

// diffFrames reports where two frames of the same geometry first differ,
// or "" when they are byte-identical.
func diffFrames(got, want *media.Frame) string {
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			bpp := want.BytesPerPixel()
			px := i / bpp
			return fmt.Sprintf("pixel (%d,%d) byte %d = %d, want %d",
				px%want.Width, px/want.Width, i%bpp, got.Pix[i], want.Pix[i])
		}
	}
	return ""
}

// checkPatternFrame renders one frame of p with the kernel and with the
// reference from identically seeded sources and compares them.
func checkPatternFrame(t *testing.T, p Pattern, w, h, depth, frame int, seed int64) {
	t.Helper()
	got, want := media.NewFrame(w, h, depth), media.NewFrame(w, h, depth)
	renderPattern(got, p, frame, w, h, depth/8, rand.New(rand.NewSource(seed)))
	refRenderPattern(want, p, frame, w, h, depth/8, rand.New(rand.NewSource(seed)))
	if d := diffFrames(got, want); d != "" {
		t.Fatalf("%v %dx%dx%d frame %d: %s", p, w, h, depth, frame, d)
	}
}

func TestVideoMatchesReference(t *testing.T) {
	patterns := []Pattern{PatternGradient, PatternBars, PatternMotion, PatternNoise, PatternChecker}
	for _, g := range refGeometries {
		w, h := g[0], g[1]
		for _, depth := range []int{8, 16, 24} {
			t.Run(fmt.Sprintf("%dx%dx%d", w, h, depth), func(t *testing.T) {
				for _, p := range patterns {
					// Through Video, so the noise source is shared across
					// frames exactly as fixtures share it.
					got := Video(media.TypeRawVideo30, p, w, h, depth, refFrames, 3)
					rng := rand.New(rand.NewSource(3))
					for i := 0; i < refFrames; i++ {
						want := media.NewFrame(w, h, depth)
						refRenderPattern(want, p, i, w, h, depth/8, rng)
						f, err := got.Frame(i)
						if err != nil {
							t.Fatal(err)
						}
						if d := diffFrames(f, want); d != "" {
							t.Fatalf("%v frame %d: %s", p, i, d)
						}
					}
				}
			})
		}
	}
}

func FuzzVideoMatchesReference(f *testing.F) {
	for _, g := range refGeometries {
		for p := uint8(0); p <= 5; p++ {
			f.Add(p, uint8(g[0]-1), uint8(g[1]-1), uint8(p%3), uint16(17*p), int64(p))
		}
	}
	f.Fuzz(func(t *testing.T, pat, wm1, hm1, depthSel uint8, frame uint16, seed int64) {
		w, h := int(wm1)+1, int(hm1)+1
		depth := 8 * (1 + int(depthSel)%3)
		checkPatternFrame(t, Pattern(pat%5), w, h, depth, int(frame), seed)
	})
}

// benchSink keeps the benchmarked results live.
var benchSink any

// BenchmarkVideoMotion renders motion clips at the geometries of the
// benchmark's fixtures.  It guards the row kernels; it is not a claim.
func BenchmarkVideoMotion(b *testing.B) {
	for _, c := range []struct{ w, h, frames int }{{64, 48, 600}, {160, 120, 300}} {
		b.Run(fmt.Sprintf("%dx%dx%d", c.w, c.h, c.frames), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Video(media.TypeRawVideo30, PatternMotion, c.w, c.h, 8, c.frames, 1)
			}
		})
	}
}
