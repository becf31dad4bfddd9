package render

import (
	"testing"

	"avdb/internal/media"
)

func BenchmarkRenderFrame320x240(b *testing.B) {
	r := NewRenderer(Museum(), 320, 240)
	cam := Camera{X: 8, Y: 6, Angle: -1.3}
	tex := media.NewFrame(64, 48, 8)
	for i := range tex.Pix {
		tex.Pix[i] = byte(i)
	}
	b.SetBytes(320 * 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Render(cam, tex)
	}
}

func BenchmarkRenderFrame160x120(b *testing.B) {
	r := NewRenderer(Museum(), 160, 120)
	cam := Camera{X: 8, Y: 6, Angle: -1.3}
	b.SetBytes(160 * 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Render(cam, nil)
	}
}

func BenchmarkWalkthroughStep(b *testing.B) {
	w := Museum()
	r := NewRenderer(w, 160, 120)
	cam := Camera{X: 8, Y: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cam = w.Move(cam, 0.05, 0.01)
		r.Render(cam, nil)
	}
}
