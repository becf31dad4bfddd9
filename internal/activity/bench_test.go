package activity

import (
	"fmt"
	"testing"

	"avdb/internal/media"
	"avdb/internal/sched"
)

// BenchmarkGraphChainThroughput streams frames through a three-stage
// chain and reports frames per wall second.
func BenchmarkGraphChainThroughput(b *testing.B) {
	const frames = 300
	v := media.NewVideoValue(media.TypeRawVideo30, 32, 24, 8)
	for i := 0; i < frames; i++ {
		if err := v.AppendFrame(media.NewFrame(32, 24, 8)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := NewGraph("bench")
		src := newBenchSource("src", v)
		inv := newBenchInverter("inv")
		sink := newBenchSink("sink")
		for _, a := range []Activity{src, inv, sink} {
			if err := g.Add(a); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := g.Connect(src, "out", inv, "in"); err != nil {
			b.Fatal(err)
		}
		if _, err := g.Connect(inv, "out", sink, "in"); err != nil {
			b.Fatal(err)
		}
		if err := g.Start(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)}); err != nil {
			b.Fatal(err)
		}
		if sink.n != frames {
			b.Fatalf("delivered %d", sink.n)
		}
	}
}

// BenchmarkCompositeOverhead measures the composite wrapper against the
// equivalent flat chain.
func BenchmarkCompositeOverhead(b *testing.B) {
	const frames = 300
	v := media.NewVideoValue(media.TypeRawVideo30, 32, 24, 8)
	for i := 0; i < frames; i++ {
		if err := v.AppendFrame(media.NewFrame(32, 24, 8)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := NewGraph("bench")
		comp := NewComposite("source", "Source", AtDatabase)
		src := newBenchSource("read", v)
		inv := newBenchInverter("decode")
		if err := comp.Install(src); err != nil {
			b.Fatal(err)
		}
		if err := comp.Install(inv); err != nil {
			b.Fatal(err)
		}
		if _, err := comp.ConnectChildren(src, "out", inv, "in"); err != nil {
			b.Fatal(err)
		}
		if err := comp.ExportOut("out", inv, "out"); err != nil {
			b.Fatal(err)
		}
		sink := newBenchSink("sink")
		if err := g.Add(comp); err != nil {
			b.Fatal(err)
		}
		if err := g.Add(sink); err != nil {
			b.Fatal(err)
		}
		if _, err := g.Connect(comp, "out", sink, "in"); err != nil {
			b.Fatal(err)
		}
		if err := g.Start(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBurnSource synthesizes one frame per tick and runs `passes` of a
// deterministic pixel transform over it — a stand-in for the per-lane
// decode/effects work a wide level carries.
// Copy-only sources make every wide graph overhead-bound; these do not.
type benchBurnSource struct {
	*Base
	frames, passes, pos int
	w, h                int
	state               uint32
}

func newBenchBurnSource(name string, frames, passes int, seed uint32) *benchBurnSource {
	s := &benchBurnSource{
		Base:   NewBase(name, "BenchBurnSource", AtDatabase),
		frames: frames, passes: passes, w: 64, h: 48, state: seed | 1,
	}
	s.AddPort("out", Out, media.TypeRawVideo30)
	return s
}

func (s *benchBurnSource) Tick(tc *TickContext) error {
	if s.pos >= s.frames {
		s.MarkDone()
		return nil
	}
	f := media.NewFrame(s.w, s.h, 8)
	x := s.state
	for p := 0; p < s.passes; p++ {
		for i := range f.Pix {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			f.Pix[i] += byte(x)
		}
	}
	s.state = x
	tc.Emit("out", &Chunk{Seq: s.pos, At: tc.Now, Arrived: tc.Now, Payload: f})
	s.pos++
	if s.pos >= s.frames {
		s.MarkDone()
	}
	return nil
}

// benchBurnSink folds its input through the same transform, giving the
// fan-out level real per-lane work too.
type benchBurnSink struct {
	*Base
	passes int
	n      int
	sum    uint32
}

func newBenchBurnSink(name string, passes int) *benchBurnSink {
	s := &benchBurnSink{Base: NewBase(name, "BenchBurnSink", AtApplication), passes: passes}
	s.AddPort("in", In, media.TypeRawVideo30)
	return s
}

func (s *benchBurnSink) Tick(tc *TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	f := in.Payload.(*media.Frame)
	x := s.sum | 1
	for p := 0; p < s.passes; p++ {
		for i := range f.Pix {
			x ^= uint32(f.Pix[i]) + x<<7
		}
	}
	s.sum = x
	s.n++
	return nil
}

// buildBurnGraph wires a wide fan-in/fan-out shape: width compute-heavy
// sources into one mixer whose output fans out to width compute-heavy
// sinks.  Both wide levels carry real work.
func buildBurnGraph(b *testing.B, width, frames, passes int) (*Graph, []*benchBurnSink) {
	b.Helper()
	g := NewGraph("burn")
	mix := newTestMixer("mix", width, AtDatabase)
	if err := g.Add(mix); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < width; i++ {
		src := newBenchBurnSource(fmt.Sprintf("src%d", i), frames, passes, uint32(i+1))
		if err := g.Add(src); err != nil {
			b.Fatal(err)
		}
		if _, err := g.Connect(src, "out", mix, fmt.Sprintf("in%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	sinks := make([]*benchBurnSink, width)
	for i := 0; i < width; i++ {
		sinks[i] = newBenchBurnSink(fmt.Sprintf("sink%d", i), passes)
		if err := g.Add(sinks[i]); err != nil {
			b.Fatal(err)
		}
		if _, err := g.Connect(mix, "out", sinks[i], "in"); err != nil {
			b.Fatal(err)
		}
	}
	return g, sinks
}

// benchGraphRun measures one full run of the wide burn graph.
func benchGraphRun(b *testing.B) {
	const (
		width  = 8
		frames = 30
		passes = 12
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, sinks := buildBurnGraph(b, width, frames, passes)
		if err := g.Start(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if want := int64(width*frames + width*frames); stats.Chunks != want {
			b.Fatalf("stats.Chunks = %d, want %d", stats.Chunks, want)
		}
		for _, s := range sinks {
			if s.n != frames {
				b.Fatalf("sink got %d frames, want %d", s.n, frames)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkGraphRun guards the cost of a run over an 8-wide
// fan-in/fan-out graph.
func BenchmarkGraphRun(b *testing.B) {
	b.Run("wide", benchGraphRun)
}

type benchSource struct {
	*Base
	v   *media.VideoValue
	pos int
}

func newBenchSource(name string, v *media.VideoValue) *benchSource {
	s := &benchSource{Base: NewBase(name, "BenchSource", AtDatabase), v: v}
	s.AddPort("out", Out, media.TypeRawVideo30)
	return s
}

func (s *benchSource) Tick(tc *TickContext) error {
	if s.pos >= s.v.NumFrames() {
		s.MarkDone()
		return nil
	}
	f, err := s.v.Frame(s.pos)
	if err != nil {
		return err
	}
	tc.Emit("out", &Chunk{Seq: s.pos, At: tc.Now, Arrived: tc.Now, Payload: f})
	s.pos++
	if s.pos >= s.v.NumFrames() {
		s.MarkDone()
	}
	return nil
}

type benchInverter struct{ *Base }

func newBenchInverter(name string) *benchInverter {
	t := &benchInverter{Base: NewBase(name, "BenchInverter", AtDatabase)}
	t.AddPort("in", In, media.TypeRawVideo30)
	t.AddPort("out", Out, media.TypeRawVideo30)
	return t
}

func (t *benchInverter) Tick(tc *TickContext) error {
	if in := tc.In("in"); in != nil {
		out := *in
		tc.Emit("out", &out)
	}
	return nil
}

type benchSink struct {
	*Base
	n int
}

func newBenchSink(name string) *benchSink {
	s := &benchSink{Base: NewBase(name, "BenchSink", AtApplication)}
	s.AddPort("in", In, media.TypeRawVideo30)
	return s
}

func (s *benchSink) Tick(tc *TickContext) error {
	if tc.In("in") != nil {
		s.n++
	}
	return nil
}
