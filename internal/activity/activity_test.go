package activity

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/sched"
)

// frameSource produces the frames of a bound VideoValue, one per tick.
type frameSource struct {
	*Base
	pos int
}

func newFrameSource(name string, loc Location) *frameSource {
	s := &frameSource{Base: NewBase(name, "TestVideoSource", loc)}
	s.AddPort("out", Out, media.TypeRawVideo30)
	s.DeclareEvents(EventEachFrame, EventLastFrame)
	return s
}

func (s *frameSource) Tick(tc *TickContext) error {
	v, ok := s.Binding("out")
	if !ok {
		return errors.New("no value bound")
	}
	vv := v.(*media.VideoValue)
	if s.pos == 0 {
		s.pos = int(media.TypeRawVideo30.Rate.UnitsIn(s.CuePoint()))
	}
	if s.pos >= vv.NumFrames() {
		s.MarkDone()
		return nil
	}
	f, err := vv.Frame(s.pos)
	if err != nil {
		return err
	}
	c := &Chunk{Seq: s.pos, At: tc.Now, Arrived: tc.Now, Payload: f}
	tc.Emit("out", c)
	s.Emit(EventInfo{Event: EventEachFrame, At: tc.Now, Seq: s.pos})
	s.pos++
	if s.pos == vv.NumFrames() {
		s.Emit(EventInfo{Event: EventLastFrame, At: tc.Now, Seq: s.pos - 1})
		s.MarkDone()
	}
	return nil
}

// inverter flips every pixel, a trivial transformer.
type inverter struct{ *Base }

func newInverter(name string, loc Location) *inverter {
	tr := &inverter{Base: NewBase(name, "TestInverter", loc)}
	tr.AddPort("in", In, media.TypeRawVideo30)
	tr.AddPort("out", Out, media.TypeRawVideo30)
	return tr
}

func (tr *inverter) Tick(tc *TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	f := in.Payload.(*media.Frame).Clone()
	for i := range f.Pix {
		f.Pix[i] = ^f.Pix[i]
	}
	out := *in
	out.Payload = f
	tc.Emit("out", &out)
	return nil
}

// frameSink collects frames and records deadline statistics.
type frameSink struct {
	*Base
	frames  []*media.Frame
	monitor *sched.Monitor
	arrived []avtime.WorldTime
}

func newFrameSink(name string, loc Location) *frameSink {
	s := &frameSink{Base: NewBase(name, "TestVideoWindow", loc), monitor: sched.NewMonitor(10 * avtime.Millisecond)}
	s.AddPort("in", In, media.TypeRawVideo30)
	return s
}

func (s *frameSink) Tick(tc *TickContext) error {
	in := tc.In("in")
	if in == nil {
		return nil
	}
	s.frames = append(s.frames, in.Payload.(*media.Frame))
	s.monitor.Record(in.At, in.Arrived)
	s.arrived = append(s.arrived, in.Arrived)
	return nil
}

func testValue(n int) *media.VideoValue {
	v := media.NewVideoValue(media.TypeRawVideo30, 4, 4, 8)
	for i := 0; i < n; i++ {
		f := media.NewFrame(4, 4, 8)
		for p := range f.Pix {
			f.Pix[p] = byte(i)
		}
		if err := v.AppendFrame(f); err != nil {
			panic(err)
		}
	}
	return v
}

func TestBaseMetadataAndKind(t *testing.T) {
	src := newFrameSource("src", AtDatabase)
	if src.Name() != "src" || src.Class() != "TestVideoSource" || src.Location() != AtDatabase {
		t.Error("metadata wrong")
	}
	if src.Kind() != KindSource {
		t.Errorf("source kind = %v", src.Kind())
	}
	if newInverter("t", AtDatabase).Kind() != KindTransformer {
		t.Error("transformer kind wrong")
	}
	if newFrameSink("s", AtApplication).Kind() != KindSink {
		t.Error("sink kind wrong")
	}
	ports := src.Ports()
	if len(ports) != 1 || ports[0].name != "out" || ports[0].Dir() != Out {
		t.Errorf("Ports = %v", ports)
	}
	if _, ok := src.Port("out"); !ok {
		t.Error("Port lookup failed")
	}
	if got := ports[0].String(); !strings.Contains(got, "src.out") {
		t.Errorf("port String = %q", got)
	}
	if evs := src.events; len(evs) != 4 { // STARTED, STOPPED, EACH_FRAME, LAST_FRAME
		t.Errorf("events = %v", evs)
	}
	if AtDatabase.String() != "database" || AtApplication.String() != "application" {
		t.Error("location names wrong")
	}
	if KindSource.String() != "source" || KindTransformer.String() != "transformer" || KindSink.String() != "sink" {
		t.Error("kind names wrong")
	}
	if In.String() != "in" || Out.String() != "out" {
		t.Error("dir names wrong")
	}
}

func TestBindTypeChecking(t *testing.T) {
	src := newFrameSource("src", AtDatabase)
	v := testValue(3)
	if err := src.Bind(v, "out"); err != nil {
		t.Fatal(err)
	}
	if got, ok := src.Binding("out"); !ok || got != media.Value(v) {
		t.Error("Binding lost value")
	}
	if err := src.Bind(v, "nope"); err == nil {
		t.Error("bind to missing port accepted")
	}
	a := media.NewAudioValue(media.TypeCDAudio, 2)
	if err := src.Bind(a, "out"); err == nil {
		t.Error("bind of audio value to video port accepted")
	}
}

func TestStartStopStateMachine(t *testing.T) {
	src := newFrameSource("src", AtDatabase)
	var events []Event
	if err := src.Catch(EventStarted, func(e EventInfo) { events = append(events, e.Event) }); err != nil {
		t.Fatal(err)
	}
	if err := src.Catch(EventStopped, func(e EventInfo) { events = append(events, e.Event) }); err != nil {
		t.Fatal(err)
	}
	if src.State() != StateIdle {
		t.Error("initial state wrong")
	}
	if err := src.Start(); err != nil {
		t.Fatal(err)
	}
	if err := src.Start(); err == nil {
		t.Error("double start accepted")
	}
	if src.State() != StateStarted {
		t.Error("not started")
	}
	if err := src.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := src.Stop(); err != nil {
		t.Error("redundant stop should be a no-op")
	}
	if len(events) != 2 || events[0] != EventStarted || events[1] != EventStopped {
		t.Errorf("events = %v", events)
	}
	if StateIdle.String() != "idle" || StateDone.String() != "done" {
		t.Error("state names wrong")
	}
}

// TestBaseStateTransitions drives a fresh activity through each sequence
// of lifecycle calls: which call fails, the state it ends in, and the
// STARTED and STOPPED events delivered on the way.
func TestBaseStateTransitions(t *testing.T) {
	calls := map[string]func(b *Base) error{
		"start": (*Base).Start,
		"stop":  (*Base).Stop,
		"done":  func(b *Base) error { b.MarkDone(); return nil },
		"cue":   func(b *Base) error { return b.Cue(avtime.Second) },
	}
	cases := []struct {
		name             string
		calls            []string
		fails            int // index of the one call that must fail; -1 for none
		want             State
		started, stopped int
	}{
		{"stop before start is a no-op", []string{"stop"}, -1, StateIdle, 0, 0},
		{"done before start is a no-op", []string{"done"}, -1, StateIdle, 0, 0},
		{"start twice fails", []string{"start", "start"}, 1, StateStarted, 1, 0},
		{"stop", []string{"start", "stop"}, -1, StateStopped, 1, 1},
		{"done", []string{"start", "done"}, -1, StateDone, 1, 0},
		{"stop after done is a no-op", []string{"start", "done", "stop"}, -1, StateDone, 1, 0},
		{"done after stop leaves it stopped", []string{"start", "stop", "done"}, -1, StateStopped, 1, 1},
		{"cue while started fails", []string{"start", "cue"}, 1, StateStarted, 1, 0},
		{"cue after done", []string{"start", "done", "cue"}, -1, StateDone, 1, 0},
		{"restart after done", []string{"start", "done", "cue", "start"}, -1, StateStarted, 2, 0},
		{"restart after stop", []string{"start", "stop", "start", "stop"}, -1, StateStopped, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBase("b", "TestBase", AtDatabase)
			var started, stopped int
			if err := b.Catch(EventStarted, func(EventInfo) { started++ }); err != nil {
				t.Fatal(err)
			}
			if err := b.Catch(EventStopped, func(EventInfo) { stopped++ }); err != nil {
				t.Fatal(err)
			}
			for i, c := range tc.calls {
				if err := calls[c](b); (err != nil) != (i == tc.fails) {
					t.Fatalf("call %d (%s): err = %v", i, c, err)
				}
			}
			if got := b.State(); got != tc.want {
				t.Errorf("state = %v, want %v", got, tc.want)
			}
			if started != tc.started || stopped != tc.stopped {
				t.Errorf("STARTED %d, STOPPED %d events; want %d, %d", started, stopped, tc.started, tc.stopped)
			}
		})
	}
}

// TestBaseStateRace ticks a graph to the end of its source while another
// goroutine reads the source's state, catches its frames and stops it at
// a different point each trial.  The stop and the source's own MarkDone
// race: exactly one of them takes the source out of Started, and
// STOPPED is announced only if the stop won.
func TestBaseStateRace(t *testing.T) {
	const frames = 30
	for trial := 0; trial < 2*frames; trial++ {
		g := NewGraph("g")
		src := newFrameSource("src", AtDatabase)
		sink := newFrameSink("sink", AtApplication)
		for _, a := range []Activity{src, sink} {
			if err := g.Add(a); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := g.Connect(src, "out", sink, "in"); err != nil {
			t.Fatal(err)
		}
		if err := src.Bind(testValue(frames), "out"); err != nil {
			t.Fatal(err)
		}
		var stopped, caught atomic.Int32
		if err := src.Catch(EventStopped, func(EventInfo) { stopped.Add(1) }); err != nil {
			t.Fatal(err)
		}
		if err := g.Start(); err != nil {
			t.Fatal(err)
		}
		quit := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := src.Catch(EventEachFrame, func(EventInfo) { caught.Add(1) }); err != nil {
				t.Error(err)
			}
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				if src.State() == StateStarted && i == trial {
					if err := src.Stop(); err != nil {
						t.Error(err)
					}
				}
			}
		}()
		_, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)})
		close(quit)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		switch st := src.State(); st {
		case StateDone:
			if stopped.Load() != 0 || len(sink.frames) != frames {
				t.Fatalf("trial %d: done with %d STOPPED events and %d of %d frames", trial, stopped.Load(), len(sink.frames), frames)
			}
		case StateStopped:
			if stopped.Load() != 1 {
				t.Fatalf("trial %d: stopped with %d STOPPED events, want 1", trial, stopped.Load())
			}
		default:
			t.Fatalf("trial %d: source left %v after its run", trial, st)
		}
		if n := caught.Load(); n > int32(len(sink.frames)) {
			t.Fatalf("trial %d: %d EACH_FRAME events for %d frames", trial, n, len(sink.frames))
		}
	}
}

// TestEmitAllocs pins an event emit with a caught handler at zero
// allocations: Emit iterates the published handler list, never a copy.
func TestEmitAllocs(t *testing.T) {
	b := NewBase("b", "TestBase", AtDatabase)
	b.DeclareEvents(EventEachFrame)
	n := 0
	if err := b.Catch(EventEachFrame, func(EventInfo) { n++ }); err != nil {
		t.Fatal(err)
	}
	info := EventInfo{Event: EventEachFrame}
	if allocs := testing.AllocsPerRun(100, func() { b.Emit(info) }); allocs != 0 {
		t.Errorf("emit with one handler: %.1f allocs, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("the handler never ran")
	}
}

// TestUnknownPortOnLaterTick: a node that emits on a declared port first
// and on an undeclared one a tick later still fails the run, because the
// port check is remembered per out slot, not per node.
func TestUnknownPortOnLaterTick(t *testing.T) {
	g := NewGraph("g")
	src := &lateStray{Base: NewBase("src", "TestLateStray", AtDatabase)}
	src.AddPort("out", Out, media.TypeRawVideo30)
	if err := g.Add(src); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0), MaxTicks: 5})
	if err == nil || !strings.Contains(err.Error(), `emitted on unknown port "nowhere"`) {
		t.Fatalf("run: err = %v, want the unknown port named", err)
	}
	if stats.Ticks != 1 {
		t.Errorf("run failed after %d complete ticks, want 1", stats.Ticks)
	}
}

// lateStray emits on its declared port every tick, and from its second
// tick on also on a port it never declared.
type lateStray struct{ *Base }

func (s *lateStray) Tick(tc *TickContext) error {
	tc.Emit("out", &Chunk{Seq: tc.Seq, At: tc.Now, Arrived: tc.Now})
	if tc.Seq >= 1 {
		tc.Emit("nowhere", &Chunk{Seq: tc.Seq, At: tc.Now, Arrived: tc.Now})
	}
	return nil
}

func TestCueRules(t *testing.T) {
	src := newFrameSource("src", AtDatabase)
	if err := src.Cue(avtime.Second); err != nil {
		t.Fatal(err)
	}
	if src.CuePoint() != avtime.Second {
		t.Error("cue lost")
	}
	if err := src.Cue(-1); err == nil {
		t.Error("negative cue accepted")
	}
	if err := src.Start(); err != nil {
		t.Fatal(err)
	}
	if err := src.Cue(0); err == nil {
		t.Error("cue while started accepted")
	}
}

func TestCatchUnknownEvent(t *testing.T) {
	src := newFrameSource("src", AtDatabase)
	if err := src.Catch("NO_SUCH", func(EventInfo) {}); err == nil {
		t.Error("catch of undeclared event accepted")
	}
	if err := src.Catch(EventEachFrame, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestGraphConnectTypeRules(t *testing.T) {
	g := NewGraph("g")
	src := newFrameSource("src", AtDatabase)
	sink := newFrameSink("sink", AtApplication)
	other := newFrameSink("other", AtApplication)
	if err := g.Add(src); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(src); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(src, "out", sink, "in"); err != nil {
		t.Fatal(err)
	}
	// Second connection to the same in port is rejected.
	if _, err := g.Connect(src, "out", sink, "in"); err == nil {
		t.Error("double connection to in port accepted")
	}
	// Node not in graph.
	if _, err := g.Connect(src, "out", other, "in"); err == nil {
		t.Error("connection to foreign node accepted")
	}
	// Direction violations.
	if _, err := g.Connect(src, "out", src, "out"); err == nil {
		t.Error("out->out connection accepted")
	}
	// Missing ports.
	if _, err := g.Connect(src, "nope", sink, "in"); err == nil {
		t.Error("missing out port accepted")
	}
	if _, err := g.Connect(src, "out", sink, "nope"); err == nil {
		t.Error("missing in port accepted")
	}
	if n, ok := g.nodes["src"]; !ok || n.Name() != "src" {
		t.Error("Node lookup failed")
	}
	if len(g.Nodes()) != 2 || len(g.Connections()) != 1 {
		t.Error("graph shape wrong")
	}
}

func TestGraphRunDeliversAllFrames(t *testing.T) {
	g := NewGraph("play")
	src := newFrameSource("src", AtDatabase)
	inv := newInverter("inv", AtDatabase)
	sink := newFrameSink("sink", AtApplication)
	for _, a := range []Activity{src, inv, sink} {
		if err := g.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Connect(src, "out", inv, "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(inv, "out", sink, "in"); err != nil {
		t.Fatal(err)
	}
	if err := src.Bind(testValue(30), "out"); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	clock := sched.NewVirtualClock(0)
	stats, err := g.Run(RunConfig{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.frames) != 30 {
		t.Fatalf("sink received %d frames, want 30", len(sink.frames))
	}
	// Transformed: frame i has pixel ^i.
	for i, f := range sink.frames {
		if f.Pix[0] != ^byte(i) {
			t.Fatalf("frame %d pixel = %d, want %d", i, f.Pix[0], ^byte(i))
		}
	}
	if stats.Ticks != 30 {
		t.Errorf("Ticks = %d", stats.Ticks)
	}
	if stats.Chunks != 60 { // 30 over each of 2 connections
		t.Errorf("Chunks = %d", stats.Chunks)
	}
	if clock.Now() != avtime.Second {
		t.Errorf("clock = %v, want 1s for 30 frames at 30fps", clock.Now())
	}
	if src.State() != StateDone {
		t.Errorf("source state = %v", src.State())
	}
}

func TestGraphRunEventsAndCue(t *testing.T) {
	g := NewGraph("g")
	src := newFrameSource("src", AtDatabase)
	sink := newFrameSink("sink", AtApplication)
	if err := g.Add(src); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(src, "out", sink, "in"); err != nil {
		t.Fatal(err)
	}
	if err := src.Bind(testValue(30), "out"); err != nil {
		t.Fatal(err)
	}
	// Cue one second in: frames 0..29 start at frame 30... value has 30
	// frames, so cue to 0.5s = frame 15, leaving 15 frames.
	if err := src.Cue(500 * avtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	var each, last int
	if err := src.Catch(EventEachFrame, func(EventInfo) { each++ }); err != nil {
		t.Fatal(err)
	}
	if err := src.Catch(EventLastFrame, func(EventInfo) { last++ }); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)}); err != nil {
		t.Fatal(err)
	}
	if len(sink.frames) != 15 {
		t.Errorf("cued playback delivered %d frames, want 15", len(sink.frames))
	}
	if each != 15 || last != 1 {
		t.Errorf("events: each=%d last=%d", each, last)
	}
	if sink.frames[0].Pix[0] != 15 {
		t.Errorf("first cued frame = %d, want 15", sink.frames[0].Pix[0])
	}
}

func TestGraphRunWithNetworkAndLatency(t *testing.T) {
	g := NewGraph("g")
	src := newFrameSource("src", AtDatabase)
	src.SetLatency(sched.NewLatency(2*avtime.Millisecond, 0, 1))
	sink := newFrameSink("sink", AtApplication)
	if err := g.Add(src); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink("lan", media.MBPerSecond, 3*avtime.Millisecond, 0, 1)
	nc, err := link.Connect(media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := g.ConnectVia(src, "out", sink, "in", nc)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Bind(testValue(10), "out"); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)}); err != nil {
		t.Fatal(err)
	}
	if len(sink.arrived) != 10 {
		t.Fatal("frames lost")
	}
	// Each frame: 2ms source latency + 3ms propagation + 16 bytes
	// serialization (16µs).
	want := 2*avtime.Millisecond + 3*avtime.Millisecond + 16*avtime.Microsecond
	if got := sink.arrived[0] - 0; got != want {
		t.Errorf("first arrival lateness = %v, want %v", got, want)
	}
	if conn.bytes != 160 || conn.Chunks() != 10 {
		t.Errorf("connection accounting: %d bytes, %d chunks", conn.bytes, conn.Chunks())
	}
	if conn.Network() != nc {
		t.Error("Network accessor wrong")
	}
	if sink.monitor.MissRate() != 0 {
		t.Errorf("5ms lateness should be within the 10ms tolerance: %v", sink.monitor)
	}
}

func TestGraphCycleDetection(t *testing.T) {
	g := NewGraph("cyclic")
	a := newInverter("a", AtDatabase)
	b := newInverter("b", AtDatabase)
	if err := g.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(b); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(a, "out", b, "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(b, "out", a, "in"); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)}); err == nil {
		t.Error("cyclic graph ran")
	}
}

func TestGraphRunRequiresClock(t *testing.T) {
	g := NewGraph("g")
	if _, err := g.Run(RunConfig{}); err == nil {
		t.Error("run without clock accepted")
	}
}

func TestGraphStopEndsRun(t *testing.T) {
	g := NewGraph("g")
	src := newFrameSource("src", AtDatabase)
	if err := g.Add(src); err != nil {
		t.Fatal(err)
	}
	if err := src.Bind(testValue(1000), "out"); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	// Stop after 5 frames via an event handler.
	n := 0
	if err := src.Catch(EventEachFrame, func(EventInfo) {
		n++
		if n == 5 {
			g.Stop()
		}
	}); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ticks > 6 {
		t.Errorf("run continued after stop: %d ticks", stats.Ticks)
	}
}

func TestGraphMaxTicksBoundsLiveSources(t *testing.T) {
	// A source that never finishes (live camera) is bounded by MaxTicks.
	g := NewGraph("live")
	src := newFrameSource("src", AtDatabase)
	if err := g.Add(src); err != nil {
		t.Fatal(err)
	}
	if err := src.Bind(testValue(1_000_000), "out"); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0), MaxTicks: 50})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ticks != 50 {
		t.Errorf("Ticks = %d, want 50", stats.Ticks)
	}
}

func TestCompositeChainEquivalence(t *testing.T) {
	// Fig. 2: a read->invert chain folded into a composite "source" must
	// produce byte-identical output to the flat chain.
	run := func(composite bool) []*media.Frame {
		g := NewGraph("g")
		sink := newFrameSink("sink", AtApplication)
		if composite {
			comp := NewComposite("source", "Source", AtDatabase)
			src := newFrameSource("read", AtDatabase)
			inv := newInverter("decode", AtDatabase)
			if err := comp.Install(src); err != nil {
				t.Fatal(err)
			}
			if err := comp.Install(inv); err != nil {
				t.Fatal(err)
			}
			if _, err := comp.ConnectChildren(src, "out", inv, "in"); err != nil {
				t.Fatal(err)
			}
			if err := comp.ExportOut("out", inv, "out"); err != nil {
				t.Fatal(err)
			}
			if err := src.Bind(testValue(20), "out"); err != nil {
				t.Fatal(err)
			}
			if err := g.Add(comp); err != nil {
				t.Fatal(err)
			}
			if err := g.Add(sink); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Connect(comp, "out", sink, "in"); err != nil {
				t.Fatal(err)
			}
		} else {
			src := newFrameSource("read", AtDatabase)
			inv := newInverter("decode", AtDatabase)
			for _, a := range []Activity{src, inv, sink} {
				if err := g.Add(a); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := g.Connect(src, "out", inv, "in"); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Connect(inv, "out", sink, "in"); err != nil {
				t.Fatal(err)
			}
			if err := src.Bind(testValue(20), "out"); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)}); err != nil {
			t.Fatal(err)
		}
		return sink.frames
	}
	flat := run(false)
	comp := run(true)
	if len(flat) != 20 || len(comp) != 20 {
		t.Fatalf("lengths: flat=%d composite=%d", len(flat), len(comp))
	}
	for i := range flat {
		if !flat[i].Equal(comp[i]) {
			t.Fatalf("frame %d differs between flat chain and composite", i)
		}
	}
}

func TestCompositeKindAndLifecycle(t *testing.T) {
	comp := NewComposite("ms", "MultiSource", AtDatabase)
	src := newFrameSource("v", AtDatabase)
	if err := comp.Install(src); err != nil {
		t.Fatal(err)
	}
	if err := comp.Install(src); err == nil {
		t.Error("duplicate install accepted")
	}
	if err := comp.ExportOut("out", src, "out"); err != nil {
		t.Fatal(err)
	}
	if comp.Kind() != KindSource {
		t.Errorf("composite kind = %v", comp.Kind())
	}
	if err := comp.Start(); err != nil {
		t.Fatal(err)
	}
	if src.State() != StateStarted {
		t.Error("start did not propagate")
	}
	if err := comp.Stop(); err != nil {
		t.Fatal(err)
	}
	if src.State() != StateStopped {
		t.Error("stop did not propagate")
	}
	if cs := comp.Children(); len(cs) != 1 || cs[0].Name() != "v" {
		t.Error("Children wrong")
	}
	if _, ok := comp.children["v"]; !ok {
		t.Error("Child lookup failed")
	}
	// Location mismatch rejected.
	appAct := newFrameSink("w", AtApplication)
	if err := comp.Install(appAct); err == nil {
		t.Error("cross-location install accepted")
	}
}

func TestCompositeExportValidation(t *testing.T) {
	comp := NewComposite("c", "C", AtDatabase)
	src := newFrameSource("v", AtDatabase)
	sink := newFrameSink("w", AtDatabase)
	if err := comp.Install(src); err != nil {
		t.Fatal(err)
	}
	if err := comp.Install(sink); err != nil {
		t.Fatal(err)
	}
	if err := comp.ExportOut("o", src, "nope"); err == nil {
		t.Error("export of missing port accepted")
	}
	if err := comp.ExportOut("o", sink, "in"); err == nil {
		t.Error("export of in port as out accepted")
	}
	if err := comp.ExportIn("i", src, "out"); err == nil {
		t.Error("export of out port as in accepted")
	}
	outside := newFrameSource("x", AtDatabase)
	if err := comp.ExportOut("o", outside, "out"); err == nil {
		t.Error("export of non-component accepted")
	}
	if err := comp.ExportMuxOut("m"); err == nil {
		t.Error("empty mux accepted")
	}
	if _, err := comp.ConnectChildren(outside, "out", sink, "in"); err == nil {
		t.Error("internal connect of non-component accepted")
	}
}

// multiplexed composite pair: a MultiSource with two video tracks and a
// MultiSink with two windows, connected by one multi/tracks connection.
func buildMultiPair(t *testing.T, frames int, syncAlpha float64, vLat, aLat *sched.Latency) (*Graph, *frameSink, *frameSink) {
	t.Helper()
	g := NewGraph("fig3")

	msrc := NewComposite("dbSource", "MultiSource", AtDatabase)
	v := newFrameSource("video", AtDatabase)
	a := newFrameSource("audio", AtDatabase)
	if vLat != nil {
		v.SetLatency(vLat)
	}
	if aLat != nil {
		a.SetLatency(aLat)
	}
	if err := msrc.Install(v); err != nil {
		t.Fatal(err)
	}
	if err := msrc.Install(a); err != nil {
		t.Fatal(err)
	}
	if err := msrc.ExportMuxOut("out", TrackRef{v, "out"}, TrackRef{a, "out"}); err != nil {
		t.Fatal(err)
	}
	if err := v.Bind(testValue(frames), "out"); err != nil {
		t.Fatal(err)
	}
	if err := a.Bind(testValue(frames), "out"); err != nil {
		t.Fatal(err)
	}

	msink := NewComposite("appSink", "MultiSink", AtApplication)
	wv := newFrameSink("video", AtApplication)
	wa := newFrameSink("audio", AtApplication)
	if err := msink.Install(wv); err != nil {
		t.Fatal(err)
	}
	if err := msink.Install(wa); err != nil {
		t.Fatal(err)
	}
	if err := msink.ExportMuxIn("in", TrackRef{wv, "in"}, TrackRef{wa, "in"}); err != nil {
		t.Fatal(err)
	}
	if syncAlpha > 0 {
		msink.EnableSync(syncAlpha)
	}

	if err := g.Add(msrc); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(msink); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(msrc, "out", msink, "in"); err != nil {
		t.Fatal(err)
	}
	return g, wv, wa
}

func TestCompositeMultiplexedDelivery(t *testing.T) {
	g, wv, wa := buildMultiPair(t, 25, 0, nil, nil)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)}); err != nil {
		t.Fatal(err)
	}
	if len(wv.frames) != 25 || len(wa.frames) != 25 {
		t.Fatalf("delivered %d video, %d audio frames; want 25 each", len(wv.frames), len(wa.frames))
	}
	for i := range wv.frames {
		if wv.frames[i].Pix[0] != byte(i) || wa.frames[i].Pix[0] != byte(i) {
			t.Fatalf("track content wrong at %d", i)
		}
	}
}

func TestCompositeSyncBoundsSkew(t *testing.T) {
	// Video is slow and jittery; audio fast.  Without sync, per-tick skew
	// equals the latency difference; with sync the MultiSink delays audio
	// to match.
	maxSkew := func(sync float64) avtime.WorldTime {
		vLat := sched.NewLatency(15*avtime.Millisecond, 4*avtime.Millisecond, 3)
		aLat := sched.NewLatency(1*avtime.Millisecond, 1*avtime.Millisecond, 4)
		g, wv, wa := buildMultiPair(t, 100, sync, vLat, aLat)
		if err := g.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)}); err != nil {
			t.Fatal(err)
		}
		if len(wv.arrived) != 100 || len(wa.arrived) != 100 {
			t.Fatalf("lost frames: %d/%d", len(wv.arrived), len(wa.arrived))
		}
		var worst avtime.WorldTime
		for i := 20; i < 100; i++ { // skip controller warm-up
			s := wv.arrived[i] - wa.arrived[i]
			if s < 0 {
				s = -s
			}
			if s > worst {
				worst = s
			}
		}
		return worst
	}
	raw := maxSkew(0)
	synced := maxSkew(0.3)
	if raw < 10*avtime.Millisecond {
		t.Fatalf("unsynced skew suspiciously low: %v", raw)
	}
	if synced >= raw/2 {
		t.Errorf("sync did not bound skew: raw %v, synced %v", raw, synced)
	}
}

func TestMultiPayloadElement(t *testing.T) {
	f := media.NewFrame(2, 2, 8)
	mp := &MultiPayload{Parts: []Chunk{
		{Track: "v", Payload: f},
		{Track: "a", Payload: f},
	}}
	if mp.Size() != 8 {
		t.Errorf("Size = %d", mp.Size())
	}
	if p := mp.Part("a"); p != &mp.Parts[1] {
		t.Errorf("Part(a) = %p, want the second part", p)
	}
	if mp.Part("x") != nil {
		t.Error("Part found a track that is not there")
	}
	var c Chunk
	if c.Size() != 0 {
		t.Error("empty chunk size wrong")
	}
}
