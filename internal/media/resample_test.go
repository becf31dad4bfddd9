package media_test

import (
	"errors"
	"math/rand"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// randomVideo returns n frames of w×h noise at the given depth.
func randomVideo(typ *media.Type, w, h, depth, n int, seed int64) *media.VideoValue {
	rng := rand.New(rand.NewSource(seed))
	v := media.NewVideoValue(typ, w, h, depth)
	for i := 0; i < n; i++ {
		f := media.NewFrame(w, h, depth)
		rng.Read(f.Pix)
		if err := v.AppendFrame(f); err != nil {
			panic(err)
		}
	}
	return v
}

// checkAgainstReference compares the view of v at w×h keeping 1 in keep
// with the old copy-then-resize path: frame count, size, and the frames
// at the given indices (all of them when idx is nil).
func checkAgainstReference(t *testing.T, v *media.VideoValue, w, h, keep int, idx []int) {
	t.Helper()
	ref, err := refResample(v, w, h, keep)
	if err != nil {
		t.Fatal(err)
	}
	got := v.Resample(w, h, keep)
	if got.NumElements() != ref.NumFrames() {
		t.Fatalf("%dx%d keep %d: %d frames, reference %d", w, h, keep, got.NumElements(), ref.NumFrames())
	}
	if got.Size() != ref.Size() {
		t.Fatalf("%dx%d keep %d: size %d, reference %d", w, h, keep, got.Size(), ref.Size())
	}
	if idx == nil {
		for i := 0; i < ref.NumFrames(); i++ {
			idx = append(idx, i)
		}
	}
	for _, i := range idx {
		want, err := ref.Frame(i)
		if err != nil {
			t.Fatal(err)
		}
		f, err := viewFrame(got, i)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(want) {
			t.Fatalf("%dx%dx%d keep %d: frame %d differs from the reference", w, h, v.Depth(), keep, i)
		}
	}
}

// TestResampleMatchesReference holds the view to the copy-then-resize
// path it replaced, for shrinking, growing and mixed targets and for
// frame dropping alone.
func TestResampleMatchesReference(t *testing.T) {
	targets := [][2]int{{13, 9}, {6, 4}, {1, 1}, {40, 31}, {5, 20}, {27, 2}, {13, 1}, {2, 9}}
	for _, depth := range []int{8, 16, 24} {
		src := randomVideo(media.TypeRawVideo30, 13, 9, depth, 7, int64(depth))
		for _, to := range targets {
			for keep := 1; keep <= 4; keep++ {
				checkAgainstReference(t, src, to[0], to[1], keep, nil)
			}
		}
	}
}

// FuzzResampleMatchesReference compares one frame of the view with the
// reference for arbitrary geometries, depths, keep factors and pixels.
func FuzzResampleMatchesReference(f *testing.F) {
	for i, to := range [][2]uint8{{12, 8}, {5, 3}, {0, 0}, {39, 30}, {4, 19}, {26, 1}} {
		f.Add(to[0], to[1], uint8(i%3), uint8(i%4), uint16(i), int64(i))
	}
	f.Fuzz(func(t *testing.T, wm1, hm1, depthSel, keepSel uint8, frame uint16, seed int64) {
		w, h := int(wm1)%64+1, int(hm1)%64+1
		depth := 8 * (1 + int(depthSel)%3)
		keep := 1 + int(keepSel)%4
		rng := rand.New(rand.NewSource(seed))
		src := randomVideo(media.TypeRawVideo30, 1+rng.Intn(48), 1+rng.Intn(48), depth, 1+rng.Intn(9), seed)
		n := (src.NumFrames() + keep - 1) / keep
		checkAgainstReference(t, src, w, h, keep, []int{int(frame) % n})
	})
}

// TestResampleTimeline: a view keeps its source's type and stretch of
// world time, at the source's rate over keep, for any raw type.
func TestResampleTimeline(t *testing.T) {
	for _, typ := range []*media.Type{media.TypeRawVideo30, media.TypeCCIRVideo} {
		src := randomVideo(typ, 8, 6, 8, 12, 1)
		src.Translate(250 * avtime.Millisecond)
		for keep := 1; keep <= 4; keep++ {
			v := src.Resample(4, 3, keep)
			if v.Type() != typ || v.Start() != src.Start() || v.Duration() != src.Duration() {
				t.Errorf("%s keep %d: %s from %v for %v, source %s from %v for %v",
					typ, keep, v.Type(), v.Start(), v.Duration(), typ, src.Start(), src.Duration())
			}
			if v.Interval() != src.Interval() {
				t.Errorf("%s keep %d: interval %v, source %v", typ, keep, v.Interval(), src.Interval())
			}
			// Element at world time w is the view frame covering w: source
			// frame keep·i for every w inside it.
			for i := 0; i < v.NumElements(); i++ {
				w := v.ObjectToWorld(avtime.ObjectTime(i))
				if got := v.WorldToObject(w); got != avtime.ObjectTime(i) {
					t.Fatalf("%s keep %d: world %v maps to %d, want %d", typ, keep, w, got, i)
				}
				el, err := v.Element(w)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := viewFrame(v, i)
				if !el.(*media.Frame).Equal(want) {
					t.Fatalf("%s keep %d: Element(%v) is not frame %d", typ, keep, w, i)
				}
			}
		}
	}
	// Scaling the source speeds the view up with it.
	src := randomVideo(media.TypeRawVideo30, 8, 6, 8, 12, 2)
	src.Scale(2)
	if v := src.Resample(8, 6, 3); v.Duration() != src.Duration() {
		t.Errorf("scaled source: view lasts %v, source %v", v.Duration(), src.Duration())
	}
}

// viewFrame reads frame i of a view as a player does, through ElementAt.
func viewFrame(v *media.ResampledVideo, i int) (*media.Frame, error) {
	el, err := v.ElementAt(avtime.ObjectTime(i))
	if err != nil {
		return nil, err
	}
	return el.(*media.Frame), nil
}

// TestResampleFrames covers what a holder of a view's frames may rely on:
// a resampled frame is its own, fresh on each read; an unresized one is
// the source's own frame, as frame dropping always shared it.
func TestResampleFrames(t *testing.T) {
	src := randomVideo(media.TypeRawVideo30, 8, 6, 16, 5, 3)
	v := src.Resample(4, 3, 2)
	a, _ := viewFrame(v, 1)
	b, _ := viewFrame(v, 1)
	if a == b || !a.Equal(b) {
		t.Error("resampled frame not fresh on each read")
	}
	if kept := a.Keep(); kept != a {
		t.Error("resampled frame is a scratch frame")
	}
	a.Pix[0] ^= 0xff
	if c, _ := viewFrame(v, 1); !c.Equal(b) {
		t.Error("writing a read frame changed the view")
	}
	drop := src.Resample(8, 6, 2)
	s2, _ := src.Frame(2)
	if d, _ := viewFrame(drop, 1); d != s2 {
		t.Error("frame-drop view copied a frame it could share")
	}
	// A view reads its source: appending to the source extends it.
	if err := src.AppendFrame(media.NewFrame(8, 6, 16)); err != nil {
		t.Fatal(err)
	}
	if v.NumElements() != 3 {
		t.Errorf("after append: %d frames, want 3", v.NumElements())
	}
	if v.Width() != 4 || v.Height() != 3 || v.Depth() != 16 {
		t.Errorf("geometry %dx%dx%d", v.Width(), v.Height(), v.Depth())
	}
}

func TestResampleOutOfRange(t *testing.T) {
	v := randomVideo(media.TypeRawVideo30, 8, 6, 8, 5, 4).Resample(4, 3, 2)
	for _, i := range []int{-1, 3} {
		if _, err := v.ElementAt(avtime.ObjectTime(i)); !errors.Is(err, media.ErrOutOfRange) {
			t.Errorf("ElementAt(%d) err = %v", i, err)
		}
	}
	if _, err := v.Element(v.Start() + v.Duration()); !errors.Is(err, media.ErrOutOfRange) {
		t.Errorf("Element past the end err = %v", err)
	}
	for _, bad := range [][3]int{{0, 3, 1}, {4, -1, 1}, {4, 3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Resample%v accepted", bad)
				}
			}()
			randomVideo(media.TypeRawVideo30, 2, 2, 8, 1, 5).Resample(bad[0], bad[1], bad[2])
		}()
	}
}

// TestResampleMaterialize: a materialized view is an ordinary value with
// the view's frames, type and timeline.
func TestResampleMaterialize(t *testing.T) {
	src := randomVideo(media.TypeCCIRVideo, 9, 7, 24, 6, 6)
	src.Translate(40 * avtime.Millisecond)
	v := src.Resample(5, 4, 2)
	m := v.Materialize()
	if m.Type() != v.Type() || m.Start() != v.Start() || m.Duration() != v.Duration() {
		t.Errorf("materialized %s from %v for %v, view %s from %v for %v",
			m.Type(), m.Start(), m.Duration(), v.Type(), v.Start(), v.Duration())
	}
	if m.NumFrames() != v.NumElements() || m.Size() != v.Size() {
		t.Fatalf("materialized %d frames of %d bytes, view %d of %d", m.NumFrames(), m.Size(), v.NumElements(), v.Size())
	}
	for i := 0; i < m.NumFrames(); i++ {
		a, _ := m.Frame(i)
		b, _ := viewFrame(v, i)
		if !a.Equal(b) {
			t.Fatalf("frame %d differs", i)
		}
	}
}
