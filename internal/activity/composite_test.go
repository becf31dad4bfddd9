package activity

import (
	"fmt"
	"strings"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// Composite.Tick works from a plan cached at the first tick.  These tests
// hold the cache to the structure: every kind of edit made after the
// first tick must show in the next one, exactly as in a composite built
// in its final form, and a steady-state tick must not allocate.

const tickDur = 33 * avtime.Millisecond

// tickComposite ticks c once, standalone, with the given In chunks.
func tickComposite(t *testing.T, c *Composite, seq int, in map[string]*Chunk) *TickContext {
	t.Helper()
	now := avtime.WorldTime(seq) * tickDur
	tc := NewTickContext(now, seq, avtime.Interval{Start: now, Dur: tickDur})
	for port, chunk := range in {
		tc.SetIn(port, chunk)
	}
	if err := c.Tick(tc); err != nil {
		t.Fatal(err)
	}
	return tc
}

// editRig is a source composite, read → decode exported as "out", plus a
// second source and a sink that the edits wire in one step at a time:
//
//	1  Install(extra)
//	2  ConnectChildren(extra → tap)
//	3  ExportOut("extra", extra.out)
type editRig struct {
	comp        *Composite
	read, extra *frameSource
	tap         *frameSink
	applied     int
}

func newEditRig(t *testing.T, edits int) *editRig {
	t.Helper()
	r := &editRig{
		comp:  NewComposite("source", "Source", AtDatabase),
		read:  newFrameSource("read", AtDatabase),
		extra: newFrameSource("extra", AtDatabase),
		tap:   newFrameSink("tap", AtDatabase),
	}
	decode := newInverter("decode", AtDatabase)
	for _, a := range []Activity{r.read, decode, r.tap} {
		if err := r.comp.Install(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.comp.ConnectChildren(r.read, "out", decode, "in"); err != nil {
		t.Fatal(err)
	}
	if err := r.comp.ExportOut("out", decode, "out"); err != nil {
		t.Fatal(err)
	}
	for _, src := range []*frameSource{r.read, r.extra} {
		if err := src.Bind(testValue(20), "out"); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.comp.Start(); err != nil { // extra stays stopped until its cue
		t.Fatal(err)
	}
	for r.applied < edits {
		r.edit(t)
	}
	return r
}

// edit applies the rig's next edit.
func (r *editRig) edit(t *testing.T) {
	t.Helper()
	var err error
	switch r.applied++; r.applied {
	case 1:
		err = r.comp.Install(r.extra)
	case 2:
		_, err = r.comp.ConnectChildren(r.extra, "out", r.tap, "in")
	case 3:
		err = r.comp.ExportOut("extra", r.extra, "out")
	}
	if err != nil {
		t.Fatal(err)
	}
}

func sameOutputs(t *testing.T, when string, got, want *TickContext) {
	t.Helper()
	emitted := func(tc *TickContext) (ports []string) {
		for _, s := range tc.out {
			if s.set {
				ports = append(ports, s.port)
			}
		}
		return ports
	}
	if g, w := emitted(got), emitted(want); len(g) != len(w) {
		t.Fatalf("%s: chunks on %v, want on %v", when, g, w)
	}
	for _, port := range emitted(want) {
		g, w := got.Out(port), want.Out(port)
		if g == nil {
			t.Fatalf("%s: nothing on %q", when, port)
		}
		if g.Seq != w.Seq || g.Arrived != w.Arrived || g.Track != w.Track || !g.Payload.(*media.Frame).Equal(w.Payload.(*media.Frame)) {
			t.Fatalf("%s: chunk on %q differs: got %+v, want %+v", when, port, g, w)
		}
	}
}

func TestCompositePlanFollowsEdits(t *testing.T) {
	const editAt, ticks = 4, 10
	for n := 1; n <= 3; n++ {
		// edited makes edit n after editAt ticks; fresh was built with it.
		edited, fresh := newEditRig(t, n-1), newEditRig(t, n)
		for seq := 0; seq < ticks; seq++ {
			if seq == editAt {
				edited.edit(t)
				for _, r := range []*editRig{edited, fresh} {
					if err := r.extra.Start(); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, want := tickComposite(t, edited.comp, seq, nil), tickComposite(t, fresh.comp, seq, nil)
			sameOutputs(t, fmt.Sprintf("edit %d, tick %d", n, seq), got, want)
			if n == 3 && seq >= editAt && got.Out("extra") == nil {
				t.Fatalf("edit 3: tick %d after ExportOut carries nothing on the new port", seq)
			}
		}
		if edited.extra.pos != ticks-editAt {
			t.Errorf("edit %d: the source installed after the first tick produced %d frames, want %d", n, edited.extra.pos, ticks-editAt)
		}
		if want := len(fresh.tap.frames); len(edited.tap.frames) != want || n >= 2 && want != ticks-editAt {
			t.Errorf("edit %d: the sink connected after the first tick took %d frames, want %d", n, len(edited.tap.frames), want)
		}
	}
}

// newSyncRig returns a started sink composite of two windows; export
// demultiplexes its "in" port to them.
func newSyncRig(t *testing.T) (comp *Composite, wv, wa *frameSink, export func()) {
	t.Helper()
	comp = NewComposite("appSink", "MultiSink", AtApplication)
	wv, wa = newFrameSink("video", AtApplication), newFrameSink("audio", AtApplication)
	for _, w := range []*frameSink{wv, wa} {
		if err := comp.Install(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := comp.Start(); err != nil {
		t.Fatal(err)
	}
	return comp, wv, wa, func() {
		if err := comp.ExportMuxIn("in", TrackRef{wv, "in"}, TrackRef{wa, "in"}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompositePlanFollowsSync: an In port exported, or resynchronization
// enabled, after the first tick behaves as if it had been there from the
// start.
func TestCompositePlanFollowsSync(t *testing.T) {
	const editAt, ticks = 3, 40
	for _, late := range []string{"ExportMuxIn", "EnableSync"} {
		edited, ev, ea, exportEdited := newSyncRig(t)
		fresh, fv, fa, exportFresh := newSyncRig(t)
		exportFresh()
		fresh.EnableSync(0.3)
		edits := map[string]func(){"ExportMuxIn": exportEdited, "EnableSync": func() { edited.EnableSync(0.3) }}
		for name, edit := range edits {
			if name != late {
				edit()
			}
		}
		frame := media.NewFrame(4, 4, 8)
		for seq := 0; seq < ticks; seq++ {
			var in map[string]*Chunk // nothing arrives before the edit, so neither controller has learnt anything
			if seq == editAt {
				edits[late]()
			}
			if seq >= editAt {
				now := avtime.WorldTime(seq) * tickDur
				in = map[string]*Chunk{"in": {Seq: seq, At: now, Arrived: now + 15*avtime.Millisecond, Payload: &MultiPayload{Parts: []Chunk{
					{Track: "video", Seq: seq, At: now, Arrived: now + 15*avtime.Millisecond, Payload: frame},
					{Track: "audio", Seq: seq, At: now, Arrived: now + avtime.Millisecond, Payload: frame},
				}}}}
			}
			tickComposite(t, edited, seq, in)
			tickComposite(t, fresh, seq, in)
		}
		if len(ev.arrived) != ticks-editAt || len(ea.arrived) != ticks-editAt {
			t.Fatalf("late %s: windows took %d and %d chunks, want %d", late, len(ev.arrived), len(ea.arrived), ticks-editAt)
		}
		for i := range ea.arrived {
			if ev.arrived[i] != fv.arrived[i] || ea.arrived[i] != fa.arrived[i] {
				t.Fatalf("late %s: chunk %d arrives at %v/%v, with everything there from the start at %v/%v",
					late, i, ev.arrived[i], ea.arrived[i], fv.arrived[i], fa.arrived[i])
			}
		}
		last := len(ea.arrived) - 1
		if skew := ev.arrived[last] - ea.arrived[last]; skew > 7*avtime.Millisecond {
			t.Errorf("late %s: skew still %v at the last chunk, the controller is not applied", late, skew)
		}
	}
}

// relay passes its input chunk on untouched and allocates nothing.
type relay struct{ *Base }

func newRelay(name string) *relay {
	r := &relay{Base: NewBase(name, "TestRelay", AtApplication)}
	r.AddPort("in", In, media.TypeRawVideo30)
	r.AddPort("out", Out, media.TypeRawVideo30)
	return r
}

func (r *relay) Tick(tc *TickContext) error {
	if in := tc.In("in"); in != nil {
		tc.Emit("out", in)
	}
	return nil
}

// TestCompositeTickAllocs pins the steady-state tick of a composite with
// one exported In port, one internal connection and one exported Out
// port at zero allocations: every chunk it copies — the input, the one
// the internal connection delivers, the output — lands in a retained
// tick-context slot.
func TestCompositeTickAllocs(t *testing.T) {
	comp := NewComposite("c", "C", AtApplication)
	a, b := newRelay("a"), newRelay("b")
	for _, r := range []*relay{a, b} {
		if err := comp.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := comp.ConnectChildren(a, "out", b, "in"); err != nil {
		t.Fatal(err)
	}
	if err := comp.ExportIn("in", a, "in"); err != nil {
		t.Fatal(err)
	}
	if err := comp.ExportOut("out", b, "out"); err != nil {
		t.Fatal(err)
	}
	if err := comp.Start(); err != nil {
		t.Fatal(err)
	}
	iv := avtime.Interval{Dur: tickDur}
	tc := NewTickContext(0, 0, iv)
	in := Chunk{Payload: media.NewFrame(4, 4, 8)}
	seq := 0
	allocs := testing.AllocsPerRun(100, func() {
		seq++
		tc.reset(avtime.WorldTime(seq)*tickDur, seq, iv, int64(seq))
		in.Seq = seq
		tc.SetIn("in", &in)
		if err := comp.Tick(tc); err != nil {
			t.Fatal(err)
		}
		if out := tc.Out("out"); out == nil || out.Seq != seq {
			t.Fatalf("tick %d: %v came out", seq, out)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state composite tick: %.1f allocs, want 0", allocs)
	}
}

// TestCompositeStoppedComponentReceivesNothing: a stopped component is
// skipped whole, as a stopped graph node is — nothing crosses the internal
// connection into it while it is stopped.
func TestCompositeStoppedComponentReceivesNothing(t *testing.T) {
	comp := NewComposite("c", "C", AtDatabase)
	src, tap := newFrameSource("src", AtDatabase), newFrameSink("tap", AtDatabase)
	for _, a := range []Activity{src, tap} {
		if err := comp.Install(a); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := comp.ConnectChildren(src, "out", tap, "in")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Bind(testValue(10), "out"); err != nil {
		t.Fatal(err)
	}
	if err := comp.Start(); err != nil {
		t.Fatal(err)
	}
	seq := 0
	for ; seq < 3; seq++ {
		tickComposite(t, comp, seq, nil)
	}
	if err := tap.Stop(); err != nil {
		t.Fatal(err)
	}
	for ; seq < 6; seq++ {
		tickComposite(t, comp, seq, nil)
	}
	if got := conn.Chunks(); got != 3 {
		t.Errorf("the internal connection moved %d chunks, want 3: %d went to the stopped component", got, got-3)
	}
	if len(tap.frames) != 3 {
		t.Errorf("the stopped component took %d frames, want 3", len(tap.frames))
	}
}

// stray emits on a port it never declared.
type stray struct{ *Base }

func (s *stray) Tick(tc *TickContext) error {
	tc.Emit("nowhere", &Chunk{Seq: tc.Seq, At: tc.Now, Arrived: tc.Now})
	return nil
}

// TestCompositeUnknownPortFails: a component that emits on an undeclared
// port fails the composite's tick, as a graph node fails the run.
func TestCompositeUnknownPortFails(t *testing.T) {
	comp := NewComposite("c", "C", AtDatabase)
	s := &stray{Base: NewBase("stray", "TestStray", AtDatabase)}
	s.AddPort("out", Out, media.TypeRawVideo30)
	if err := comp.Install(s); err != nil {
		t.Fatal(err)
	}
	if err := comp.Start(); err != nil {
		t.Fatal(err)
	}
	tc := NewTickContext(0, 0, avtime.Interval{Dur: tickDur})
	err := comp.Tick(tc)
	if err == nil || !strings.Contains(err.Error(), `"nowhere"`) {
		t.Fatalf("tick with an undeclared port: err = %v, want the unknown port named", err)
	}
}
