package activities

import (
	"fmt"

	"avdb/internal/activity"
	"avdb/internal/media"
	"avdb/internal/render"
)

// MovePolicy drives a MoveSource: given the step number and the current
// camera, it returns the next camera pose.
type MovePolicy func(step int, cam render.Camera) render.Camera

// OrbitPolicy walks the camera forward while turning gently — a canned
// interactive walkthrough.
func OrbitPolicy(w *render.World, speed, turn float64) MovePolicy {
	return func(step int, cam render.Camera) render.Camera {
		return w.Move(cam, speed, turn)
	}
}

// MoveSource is the virtual-world "move" activity of Fig. 4: the user-
// driven control stream of camera poses.
type MoveSource struct {
	*activity.Base
	cam    render.Camera
	policy MovePolicy
	steps  int
	pos    int
}

// NewMoveSource returns a move source emitting steps poses from the
// initial camera under the policy.
func NewMoveSource(name string, loc activity.Location, start render.Camera, policy MovePolicy, steps int) (*MoveSource, error) {
	if policy == nil {
		return nil, fmt.Errorf("activities: MoveSource needs a policy")
	}
	if steps <= 0 {
		return nil, fmt.Errorf("activities: MoveSource needs a positive step count")
	}
	m := &MoveSource{Base: activity.NewBase(name, "MoveSource", loc), cam: start, policy: policy, steps: steps}
	m.AddPort("out", activity.Out, render.TypeCameraControl)
	m.DeclareEvents(activity.EventEachFrame, activity.EventLastFrame)
	return m, nil
}

// Tick implements activity.Activity.
func (m *MoveSource) Tick(tc *activity.TickContext) error {
	if m.pos >= m.steps {
		m.MarkDone()
		return nil
	}
	m.cam = m.policy(m.pos, m.cam)
	tc.Emit("out", &activity.Chunk{Seq: m.pos, At: tc.Now, Arrived: tc.Now, Payload: render.CameraElement{Cam: m.cam}})
	m.Emit(activity.EventInfo{Event: activity.EventEachFrame, At: tc.Now, Seq: m.pos})
	m.pos++
	if m.pos >= m.steps {
		m.Emit(activity.EventInfo{Event: activity.EventLastFrame, At: tc.Now, Seq: m.pos - 1})
		m.MarkDone()
	}
	return nil
}

// RenderActivity is Fig. 4's "render": it "processes two streams — one
// coming from the user driven activity, move, the other from a video
// source — and generates a stream of raster images".  The video input
// textures the world's video wall; each camera pose yields one rendered
// frame.
type RenderActivity struct {
	*activity.Base
	renderer *render.Renderer
	lastTex  *media.Frame
	lastCam  render.Camera
	haveCam  bool
}

// NewRenderActivity returns a renderer activity over the given world
// view.
func NewRenderActivity(name string, loc activity.Location, r *render.Renderer) *RenderActivity {
	ra := &RenderActivity{Base: activity.NewBase(name, "Render", loc), renderer: r}
	ra.AddPort("move", activity.In, render.TypeCameraControl)
	ra.AddPort("video", activity.In, media.TypeRawVideo30)
	ra.AddPort("out", activity.Out, media.TypeRawVideo30)
	return ra
}

// Tick implements activity.Activity.
func (ra *RenderActivity) Tick(tc *activity.TickContext) error {
	if v := tc.In("video"); v != nil {
		f, ok := v.Payload.(*media.Frame)
		if !ok {
			return fmt.Errorf("activities: %s video input is %T, want raw frame", ra.Name(), v.Payload)
		}
		ra.lastTex = f.Keep()
	}
	mv := tc.In("move")
	if mv != nil {
		ce, ok := mv.Payload.(render.CameraElement)
		if !ok {
			return fmt.Errorf("activities: %s move input is %T, want camera", ra.Name(), mv.Payload)
		}
		ra.lastCam = ce.Cam
		ra.haveCam = true
	}
	if !ra.haveCam {
		return nil // nothing to render until the first pose arrives
	}
	frame := ra.renderer.Render(ra.lastCam, ra.lastTex)
	out := &activity.Chunk{Seq: tc.Seq, At: tc.Now, Arrived: tc.Now, Payload: frame}
	if mv != nil {
		out.Arrived = activity.MaxArrival(mv, tc.In("video"))
		out.Seq = mv.Seq
	}
	tc.Emit("out", out)
	return nil
}
