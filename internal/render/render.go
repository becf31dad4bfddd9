// Package render is the virtual-world substrate of Scenario II: a small
// software renderer over a grid world whose walls can carry live video
// textures ("the video material could be projected on a wall in the
// virtual world").  A camera navigates the world; each rendered frame is
// a raster image — an AV value — that can be produced either at the
// database site or at the client, which is exactly the trade-off of the
// paper's Fig. 4.
//
// The renderer is a classic column ray-caster: cheap enough to run in
// tests, expensive enough (per-pixel work) that rendering cost is a
// meaningful resource in the Fig. 4 experiments.
package render

import (
	"fmt"
	"math"

	"avdb/internal/media"
)

// TypeCameraControl is the media data type of camera-movement control
// streams: the "move" activity of Fig. 4 produces elements of this type.
var TypeCameraControl = &media.Type{Name: "control/camera", Kind: media.KindControl}

// CameraElement is one control-stream element: a camera pose.
type CameraElement struct {
	Cam Camera
}

// Size reports the element's wire size: four float64 fields.
func (CameraElement) Size() int64 { return 32 }

// Cell values of the world grid.
const (
	CellEmpty byte = 0
	// CellVideo is a wall textured with the current video frame.
	CellVideo byte = 255
	// Values 1..254 are plain walls with that base shade.
)

// World is a rectangular grid of cells.
type World struct {
	W, H  int
	cells []byte
}

// NewWorld returns an empty world of the given dimensions, walled at the
// border with shade 200.
func NewWorld(w, h int) *World {
	if w < 3 || h < 3 {
		panic(fmt.Sprintf("render: world %dx%d too small", w, h))
	}
	world := &World{W: w, H: h, cells: make([]byte, w*h)}
	for x := 0; x < w; x++ {
		world.Set(x, 0, 200)
		world.Set(x, h-1, 200)
	}
	for y := 0; y < h; y++ {
		world.Set(0, y, 200)
		world.Set(w-1, y, 200)
	}
	return world
}

// Set assigns a cell.
func (w *World) Set(x, y int, v byte) {
	if x < 0 || x >= w.W || y < 0 || y >= w.H {
		panic(fmt.Sprintf("render: cell (%d,%d) outside %dx%d world", x, y, w.W, w.H))
	}
	w.cells[y*w.W+x] = v
}

// At reads a cell; out-of-bounds cells read as solid wall.
func (w *World) At(x, y int) byte {
	if x < 0 || x >= w.W || y < 0 || y >= w.H {
		return 200
	}
	return w.cells[y*w.W+x]
}

// Museum returns the demo world: a 16×12 gallery with interior pillars
// and a video wall along the north side.
func Museum() *World {
	w := NewWorld(16, 12)
	for x := 4; x <= 11; x++ {
		w.Set(x, 1, CellVideo) // the video wall
	}
	for _, p := range [][2]int{{4, 6}, {8, 6}, {12, 6}, {6, 9}, {10, 9}} {
		w.Set(p[0], p[1], 120)
	}
	return w
}

// Camera is a viewer position and orientation in world units (one cell =
// one unit).
type Camera struct {
	X, Y  float64
	Angle float64 // radians; 0 looks along +x
	FOV   float64 // radians; 0 defaults to ~66°
}

// Move advances the camera by dist along its heading, sliding along
// walls, and turns it by dAngle.  It returns the updated camera.
func (w *World) Move(c Camera, dist, dAngle float64) Camera {
	c.Angle += dAngle
	nx := c.X + math.Cos(c.Angle)*dist
	ny := c.Y + math.Sin(c.Angle)*dist
	if w.At(int(nx), int(c.Y)) == CellEmpty {
		c.X = nx
	}
	if w.At(int(c.X), int(ny)) == CellEmpty {
		c.Y = ny
	}
	return c
}

// Renderer rasterizes views of a world.
type Renderer struct {
	world *World
	w, h  int
}

// NewRenderer returns a renderer producing w×h 8-bit frames.
func NewRenderer(world *World, w, h int) *Renderer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: invalid frame size %dx%d", w, h))
	}
	return &Renderer{world: world, w: w, h: h}
}

// Render rasterizes the camera's view.  videoTex, when non-nil, textures
// CellVideo walls; a nil texture renders them mid-gray.
func (r *Renderer) Render(cam Camera, videoTex *media.Frame) *media.Frame {
	f := media.NewFrame(r.w, r.h, 8)
	fov := cam.FOV
	if fov == 0 {
		fov = math.Pi / 2.75
	}
	for col := 0; col < r.w; col++ {
		rayAngle := cam.Angle + fov*(float64(col)/float64(r.w)-0.5)
		dist, cell, u := r.cast(cam.X, cam.Y, rayAngle)
		// Remove fisheye.
		dist *= math.Cos(rayAngle - cam.Angle)
		if dist < 1e-4 {
			dist = 1e-4
		}
		wallH := int(float64(r.h) / dist)
		top := (r.h - wallH) / 2
		for y := 0; y < r.h; y++ {
			var shade byte
			switch {
			case y < top: // ceiling
				shade = 16
			case y >= top+wallH: // floor
				shade = 48
			default:
				shade = r.wallShade(cell, u, float64(y-top)/float64(wallH), videoTex)
				// Distance shading.
				att := 1.0 / (1.0 + dist*0.15)
				shade = byte(float64(shade) * att)
			}
			f.Set(col, y, shade)
		}
	}
	return f
}

// cast runs a DDA ray through the grid, returning the distance, the cell
// value hit and the horizontal texture coordinate u in [0,1).
func (r *Renderer) cast(px, py, angle float64) (dist float64, cell byte, u float64) {
	dx, dy := math.Cos(angle), math.Sin(angle)
	mapX, mapY := int(px), int(py)
	var sideDistX, sideDistY float64
	deltaX := math.Abs(1 / nonZero(dx))
	deltaY := math.Abs(1 / nonZero(dy))
	var stepX, stepY int
	if dx < 0 {
		stepX = -1
		sideDistX = (px - float64(mapX)) * deltaX
	} else {
		stepX = 1
		sideDistX = (float64(mapX) + 1 - px) * deltaX
	}
	if dy < 0 {
		stepY = -1
		sideDistY = (py - float64(mapY)) * deltaY
	} else {
		stepY = 1
		sideDistY = (float64(mapY) + 1 - py) * deltaY
	}
	sideX := true
	for i := 0; i < 4*(r.world.W+r.world.H); i++ {
		if sideDistX < sideDistY {
			sideDistX += deltaX
			mapX += stepX
			sideX = true
		} else {
			sideDistY += deltaY
			mapY += stepY
			sideX = false
		}
		if c := r.world.At(mapX, mapY); c != CellEmpty {
			if sideX {
				dist = (float64(mapX) - px + float64(1-stepX)/2) / nonZero(dx)
				u = py + dist*dy
			} else {
				dist = (float64(mapY) - py + float64(1-stepY)/2) / nonZero(dy)
				u = px + dist*dx
			}
			u -= math.Floor(u)
			return dist, c, u
		}
	}
	return float64(r.world.W + r.world.H), 200, 0
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1e-9
	}
	return v
}

// wallShade picks the pixel for a wall hit: video walls sample the
// texture, plain walls use their base shade with a subtle vertical seam
// pattern.
func (r *Renderer) wallShade(cell byte, u, v float64, videoTex *media.Frame) byte {
	if cell == CellVideo {
		if videoTex == nil {
			return 128
		}
		tx := int(u * float64(videoTex.Width))
		ty := int(v * float64(videoTex.Height))
		if tx >= videoTex.Width {
			tx = videoTex.Width - 1
		}
		if ty >= videoTex.Height {
			ty = videoTex.Height - 1
		}
		return videoTex.At(tx, ty)
	}
	shade := cell
	if int(u*16)%8 == 0 {
		shade = byte(float64(shade) * 0.8)
	}
	return shade
}
