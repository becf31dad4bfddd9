package render

import (
	"math"
	"testing"

	"avdb/internal/media"
	"avdb/internal/synth"
)

func TestWorldCells(t *testing.T) {
	w := NewWorld(8, 6)
	if w.At(0, 0) != 200 || w.At(7, 5) != 200 {
		t.Error("border not walled")
	}
	if w.At(3, 3) != CellEmpty {
		t.Error("interior not empty")
	}
	if w.At(-1, 0) != 200 || w.At(0, 99) != 200 {
		t.Error("out-of-bounds not solid")
	}
	w.Set(3, 3, 99)
	if w.At(3, 3) != 99 {
		t.Error("Set failed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-bounds Set did not panic")
			}
		}()
		w.Set(99, 0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("tiny world did not panic")
			}
		}()
		NewWorld(2, 2)
	}()
}

func TestMuseumHasVideoWall(t *testing.T) {
	m := Museum()
	var video int
	for x := 0; x < m.W; x++ {
		for y := 0; y < m.H; y++ {
			if m.At(x, y) == CellVideo {
				video++
			}
		}
	}
	if video == 0 {
		t.Error("museum lacks a video wall")
	}
}

func TestCameraMoveAndCollision(t *testing.T) {
	w := NewWorld(8, 6)
	cam := Camera{X: 4, Y: 3, Angle: 0}
	cam = w.Move(cam, 1, 0)
	if cam.X != 5 || cam.Y != 3 {
		t.Errorf("move failed: %+v", cam)
	}
	// Walking into the east wall stops at it.
	for i := 0; i < 10; i++ {
		cam = w.Move(cam, 1, 0)
	}
	if cam.X >= 7 {
		t.Errorf("camera walked through wall: %+v", cam)
	}
	// Turning changes heading.
	cam2 := w.Move(Camera{X: 4, Y: 3}, 0, math.Pi/2)
	if math.Abs(cam2.Angle-math.Pi/2) > 1e-9 {
		t.Error("turn failed")
	}
}

func TestRenderProducesWallsFloorCeiling(t *testing.T) {
	r := NewRenderer(Museum(), 64, 48)
	f := r.Render(Camera{X: 8, Y: 6, Angle: -math.Pi / 2}, nil)
	if f.Width != 64 || f.Height != 48 {
		t.Fatal("frame size wrong")
	}
	if f.Size() != 64*48 {
		t.Error("frame byte size wrong")
	}
	// Ceiling darker than floor, walls present in the middle.
	if f.At(32, 0) != 16 {
		t.Errorf("ceiling = %d", f.At(32, 0))
	}
	if f.At(32, 47) != 48 {
		t.Errorf("floor = %d", f.At(32, 47))
	}
	mid := f.At(32, 24)
	if mid == 16 || mid == 48 {
		t.Errorf("no wall at center: %d", mid)
	}
}

func TestRenderDeterministic(t *testing.T) {
	r := NewRenderer(Museum(), 32, 24)
	cam := Camera{X: 8, Y: 6, Angle: 1.1}
	a := r.Render(cam, nil)
	b := r.Render(cam, nil)
	if !a.Equal(b) {
		t.Error("rendering not deterministic")
	}
}

func TestVideoWallShowsTexture(t *testing.T) {
	r := NewRenderer(Museum(), 64, 48)
	cam := Camera{X: 8, Y: 4, Angle: -math.Pi / 2} // facing the video wall
	plain := r.Render(cam, nil)
	// A texture with a distinctive bright stripe.
	tex := synth.Video(media.TypeRawVideo30, PatternForTest(), 32, 24, 8, 1, 0)
	tf, _ := tex.Frame(0)
	for y := 0; y < 24; y++ {
		tf.Set(16, y, 250)
	}
	textured := r.Render(cam, tf)
	if plain.Equal(textured) {
		t.Error("texture had no effect on the video wall")
	}
	// Different camera positions see different projections (the texture
	// repeats per cell, so change the distance, not just the x offset).
	other := r.Render(Camera{X: 8, Y: 5.5, Angle: -math.Pi / 2}, tf)
	if textured.Equal(other) {
		t.Error("moving the camera did not change the view")
	}
}

// PatternForTest keeps the synth import tidy.
func PatternForTest() synth.Pattern { return synth.PatternGradient }

func TestRendererPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size renderer did not panic")
		}
	}()
	NewRenderer(Museum(), 0, 10)
}

func TestWalkthroughRendersEveryFrame(t *testing.T) {
	// A user interactively moving through the world: every step renders a
	// distinct frame — "as the user changes position, a new visualization
	// of the world is rendered" (§3.2).
	w := Museum()
	r := NewRenderer(w, 48, 36)
	cam := Camera{X: 8, Y: 8, Angle: math.Pi}
	var prev *media.Frame
	distinct := 0
	for step := 0; step < 20; step++ {
		cam = w.Move(cam, 0.15, 0.05)
		f := r.Render(cam, nil)
		if prev != nil && !f.Equal(prev) {
			distinct++
		}
		prev = f
	}
	if distinct < 15 {
		t.Errorf("only %d distinct frames over 19 moves", distinct)
	}
}
