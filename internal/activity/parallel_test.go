package activity

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/netsim"
	"avdb/internal/obs"
	"avdb/internal/sched"
)

// testMixer merges up to `ins` video inputs by pixel-summing them, the
// fan-in half of a wide graph.
type testMixer struct {
	*Base
	ins int
}

func newTestMixer(name string, ins int, loc Location) *testMixer {
	m := &testMixer{Base: NewBase(name, "TestMixer", loc), ins: ins}
	for i := 0; i < ins; i++ {
		m.AddPort(fmt.Sprintf("in%d", i), In, media.TypeRawVideo30)
	}
	m.AddPort("out", Out, media.TypeRawVideo30)
	return m
}

func (m *testMixer) Tick(tc *TickContext) error {
	var acc *media.Frame
	var inputs []*Chunk
	seq := 0
	for i := 0; i < m.ins; i++ {
		in := tc.In(fmt.Sprintf("in%d", i))
		if in == nil {
			continue
		}
		inputs = append(inputs, in)
		f := in.Payload.(*media.Frame)
		if acc == nil {
			acc = f.Clone()
		} else {
			for p := range acc.Pix {
				acc.Pix[p] += f.Pix[p]
			}
		}
		seq = in.Seq
	}
	if acc == nil {
		return nil
	}
	tc.Emit("out", &Chunk{Seq: seq, At: tc.Now, Arrived: MaxArrival(inputs...), Payload: acc})
	return nil
}

// buildWideGraph wires width jittered sources through seeded network
// connections into one mixer feeding a sink — one level width nodes
// wide, then two of one — with every random draw seeded so two builds
// behave identically.
func buildWideGraph(t *testing.T, width, frames int) (*Graph, *frameSink) {
	t.Helper()
	g := NewGraph("wide")
	mix := newTestMixer("mix", width, AtDatabase)
	sink := newFrameSink("sink", AtApplication)
	if err := g.Add(mix); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(sink); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink("lan", media.DataRate(width)*media.MBPerSecond, 2*avtime.Millisecond, avtime.Millisecond, 99)
	for i := 0; i < width; i++ {
		src := newFrameSource(fmt.Sprintf("src%d", i), AtDatabase)
		src.SetLatency(sched.NewLatency(3*avtime.Millisecond, 2*avtime.Millisecond, int64(i+1)))
		if err := g.Add(src); err != nil {
			t.Fatal(err)
		}
		if err := src.Bind(testValue(frames), "out"); err != nil {
			t.Fatal(err)
		}
		nc, err := link.Connect(media.MBPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.ConnectVia(src, "out", mix, fmt.Sprintf("in%d", i), nc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Connect(mix, "out", sink, "in"); err != nil {
		t.Fatal(err)
	}
	return g, sink
}

func TestLevelsPartitionTopoOrder(t *testing.T) {
	g, _ := buildWideGraph(t, 4, 1)
	nodes, ok := planNodes(g.Nodes(), g.Connections())
	if !ok {
		t.Fatal("wide graph reported a cycle")
	}
	// The levels must be contiguous stretches of the topological order —
	// depth never decreases along it — which is what lets Tick walk the
	// plan level by level.  The graph was built mixer and sink first, so
	// the order is not insertion order.
	want := []string{"src0", "src1", "src2", "src3", "mix", "sink"}
	if len(nodes) != len(want) {
		t.Fatalf("plan holds %d nodes, want %d", len(nodes), len(want))
	}
	for i := range nodes {
		if nodes[i].act.Name() != want[i] {
			t.Errorf("nodes[%d] = %s, want %s", i, nodes[i].act.Name(), want[i])
		}
		if i > 0 && nodes[i].depth < nodes[i-1].depth {
			t.Errorf("depth falls from %d to %d at %s", nodes[i-1].depth, nodes[i].depth, want[i])
		}
		for _, f := range nodes[i].feeds {
			if f.from.depth >= nodes[i].depth {
				t.Errorf("%s (depth %d) is fed by %s (depth %d)", want[i], nodes[i].depth, f.from.act.Name(), f.from.depth)
			}
		}
	}
	levels, width := levelShape(nodes)
	if levels != 3 {
		t.Errorf("levels = %d, want 3 (sources, mixer, sink)", levels)
	}
	if width != 4 {
		t.Errorf("width = %d, want 4", width)
	}
}

// runWide executes a fresh wide graph with Graph.Run and returns
// everything an equivalence check needs: run stats, the observability
// snapshot bytes, and the sink's arrival times.
func runWide(t *testing.T) (*RunStats, []byte, []avtime.WorldTime) {
	t.Helper()
	g, sink := buildWideGraph(t, 4, 40)
	col := obs.NewCollector()
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0), Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	js, err := col.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return stats, []byte(js), sink.arrived
}

// runWideStepped executes the same wide graph but drives the GraphRun
// state machine externally, exactly the way the multi-session engine
// does for a lone session: explicit round tags per step and one clock
// commit (to the minimum — here only — commit horizon) after each tick.
func runWideStepped(t *testing.T) (*RunStats, []byte, []avtime.WorldTime) {
	t.Helper()
	g, sink := buildWideGraph(t, 4, 40)
	col := obs.NewCollector()
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	clock := sched.NewVirtualClock(0)
	run, err := g.Begin(RunConfig{Clock: clock, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(0); ; step++ {
		run.SetRound(step)
		done, err := run.Tick()
		if err != nil {
			t.Fatal(err)
		}
		clock.AdvanceTo(run.CommitHorizon())
		if done {
			break
		}
	}
	stats, err := run.Finish()
	if err != nil {
		t.Fatal(err)
	}
	js, err := col.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return stats, []byte(js), sink.arrived
}

func TestSerialParallelEquivalence(t *testing.T) {
	// Same seeds, different drivers: the runs must be byte-identical in
	// stats, arrivals, and the full observability snapshot (span IDs,
	// metric values, histogram buckets).  The stepped arm drives
	// Begin/Tick/Commit/Finish externally — the multi-session engine's
	// protocol — and must reproduce the classic Run loop exactly, pinning
	// one-session-under-the-engine to a direct Run.
	runStats, runSnap, runArr := runWide(t)
	stStats, stSnap, stArr := runWideStepped(t)
	if !reflect.DeepEqual(runStats, stStats) {
		t.Errorf("RunStats diverged:\nrun     %+v\nstepped %+v", runStats, stStats)
	}
	if !reflect.DeepEqual(runArr, stArr) {
		t.Errorf("sink arrival times diverged")
	}
	if !bytes.Equal(runSnap, stSnap) {
		t.Errorf("obs snapshots differ (%d vs %d bytes)", len(runSnap), len(stSnap))
	}
}

// TestGraphRunStartsNoGoroutines pins that a run has no host
// parallelism of its own: whatever RunConfig.Workers says, Begin, Tick
// and Finish all execute on the calling goroutine and start none.
func TestGraphRunStartsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	g, sink := buildWideGraph(t, 4, 10)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	check := func(at string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("%s: %d goroutines, %d before Begin", at, n, before)
		}
	}
	run, err := g.Begin(RunConfig{Clock: sched.NewVirtualClock(0), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	check("after Begin")
	for done := false; !done; {
		if done, err = run.Tick(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after tick %d", run.Ticks()))
		run.Commit()
	}
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	check("after Finish")
	if len(sink.frames) != 10 {
		t.Fatalf("delivered %d frames, want 10", len(sink.frames))
	}
}

func TestFanOutPortSemantics(t *testing.T) {
	// One out port feeding two connections: both receivers get every
	// chunk; delivered copies are independent chunk structs.
	g := NewGraph("fanout")
	src := newFrameSource("src", AtDatabase)
	s1 := newFrameSink("s1", AtApplication)
	s2 := newFrameSink("s2", AtApplication)
	for _, a := range []Activity{src, s1, s2} {
		if err := g.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Connect(src, "out", s1, "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(src, "out", s2, "in"); err != nil {
		t.Fatal(err)
	}
	if err := src.Bind(testValue(10), "out"); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.frames) != 10 || len(s2.frames) != 10 {
		t.Fatalf("fan-out delivered %d/%d frames, want 10/10", len(s1.frames), len(s2.frames))
	}
	if stats.Chunks != 20 {
		t.Errorf("stats.Chunks = %d, want 20 (10 per branch)", stats.Chunks)
	}
	for i := range s1.frames {
		if s1.frames[i].Pix[0] != byte(i) || s2.frames[i].Pix[0] != byte(i) {
			t.Fatalf("branch content wrong at %d", i)
		}
	}
}

// buildMuxFanOut wires one MultiSource whose mux out port fans out over
// two network connections to two MultiSink composites.
func buildMuxFanOut(t *testing.T) (*Graph, [2]*frameSink, [2]*frameSink) {
	t.Helper()
	g := NewGraph("muxfan")

	msrc := NewComposite("dbSource", "MultiSource", AtDatabase)
	v := newFrameSource("video", AtDatabase)
	a := newFrameSource("audio", AtDatabase)
	for _, child := range []Activity{v, a} {
		if err := msrc.Install(child); err != nil {
			t.Fatal(err)
		}
	}
	if err := msrc.ExportMuxOut("out", TrackRef{v, "out"}, TrackRef{a, "out"}); err != nil {
		t.Fatal(err)
	}
	if err := v.Bind(testValue(10), "out"); err != nil {
		t.Fatal(err)
	}
	if err := a.Bind(testValue(10), "out"); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(msrc); err != nil {
		t.Fatal(err)
	}

	var videoSinks, audioSinks [2]*frameSink
	link := netsim.NewLink("lan", 2*media.MBPerSecond, 3*avtime.Millisecond, 0, 1)
	for i := 0; i < 2; i++ {
		msink := NewComposite(fmt.Sprintf("appSink%d", i), "MultiSink", AtApplication)
		wv := newFrameSink("video", AtApplication)
		wa := newFrameSink("audio", AtApplication)
		for _, child := range []Activity{wv, wa} {
			if err := msink.Install(child); err != nil {
				t.Fatal(err)
			}
		}
		if err := msink.ExportMuxIn("in", TrackRef{wv, "in"}, TrackRef{wa, "in"}); err != nil {
			t.Fatal(err)
		}
		if err := g.Add(msink); err != nil {
			t.Fatal(err)
		}
		nc, err := link.Connect(media.MBPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.ConnectVia(msrc, "out", msink, "in", nc); err != nil {
			t.Fatal(err)
		}
		videoSinks[i], audioSinks[i] = wv, wa
	}
	return g, videoSinks, audioSinks
}

func TestFanOutMultiPayloadLatencyAppliedOnce(t *testing.T) {
	// Regression for the chunk-aliasing bug: deliver copied the outer
	// chunk shallowly, so both fan-out branches shared one *MultiPayload
	// and propagateExtra shifted the shared parts once per branch —
	// double-applying the link latency on the second branch's tracks.
	g, videoSinks, _ := buildMuxFanOut(t)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)}); err != nil {
		t.Fatal(err)
	}
	// Per delivery: 3ms propagation + 32 bytes at 1 MB/s (32µs), applied
	// exactly once to each branch's parts.
	want := 3*avtime.Millisecond + 32*avtime.Microsecond
	for b, wv := range videoSinks {
		if len(wv.arrived) != 10 {
			t.Fatalf("branch %d delivered %d frames, want 10", b, len(wv.arrived))
		}
		if got := wv.arrived[0]; got != want {
			t.Errorf("branch %d part lateness = %v, want %v (latency applied once)", b, got, want)
		}
	}
}

// TestNestedMuxLatencyAppliedOnce: latency added after bundling rides on
// the envelope and reaches the parts only when they are demultiplexed —
// through a nested envelope too.  The MultiSource "outer" bundles a
// muxing composite "inner" (tracks v and a) with a plain track s; every
// component and both composites have a fixed latency, and outer's stream
// fans out over a link to two MultiSinks that demultiplex it in turn.
// Every part must arrive exactly its own hops later: each latency once,
// the link once per branch.
func TestNestedMuxLatencyAppliedOnce(t *testing.T) {
	const ms = avtime.Millisecond
	lat := func(a interface{ SetLatency(*sched.Latency) }, d avtime.WorldTime) {
		a.SetLatency(sched.NewLatency(d, 0, 1))
	}
	install := func(c *Composite, children ...Activity) {
		for _, child := range children {
			if err := c.Install(child); err != nil {
				t.Fatal(err)
			}
		}
	}
	const frames = 10
	g := NewGraph("nested")

	inner := NewComposite("inner", "MultiSource", AtDatabase)
	v, a := newFrameSource("v", AtDatabase), newFrameSource("a", AtDatabase)
	install(inner, v, a)
	if err := inner.ExportMuxOut("out", TrackRef{v, "out"}, TrackRef{a, "out"}); err != nil {
		t.Fatal(err)
	}
	outer := NewComposite("outer", "MultiSource", AtDatabase)
	s := newFrameSource("s", AtDatabase)
	install(outer, inner, s)
	if err := outer.ExportMuxOut("out", TrackRef{inner, "out"}, TrackRef{s, "out"}); err != nil {
		t.Fatal(err)
	}
	for _, src := range []*frameSource{v, a, s} {
		if err := src.Bind(testValue(frames), "out"); err != nil {
			t.Fatal(err)
		}
	}
	lat(v, 2*ms)
	lat(a, 5*ms)
	lat(s, 1*ms)
	lat(inner, 7*ms)
	lat(outer, 11*ms)
	if err := g.Add(outer); err != nil {
		t.Fatal(err)
	}

	// Per branch: 3 ms propagation + three 16-byte parts at 1 MB/s.
	link := netsim.NewLink("lan", 2*media.MBPerSecond, 3*ms, 0, 1)
	hop := 3*ms + 48*avtime.Microsecond
	want := map[string]avtime.WorldTime{
		"v": 2*ms + 7*ms + 11*ms + hop,
		"a": 5*ms + 7*ms + 11*ms + hop,
		"s": 1*ms + 11*ms + hop,
	}
	var sinks [2]map[string]*frameSink
	for b := range sinks {
		wv, wa, ws := newFrameSink("v", AtApplication), newFrameSink("a", AtApplication), newFrameSink("s", AtApplication)
		innerSink := NewComposite("inner", "MultiSink", AtApplication)
		install(innerSink, wv, wa)
		if err := innerSink.ExportMuxIn("in", TrackRef{wv, "in"}, TrackRef{wa, "in"}); err != nil {
			t.Fatal(err)
		}
		sink := NewComposite(fmt.Sprintf("sink%d", b), "MultiSink", AtApplication)
		install(sink, innerSink, ws)
		if err := sink.ExportMuxIn("in", TrackRef{innerSink, "in"}, TrackRef{ws, "in"}); err != nil {
			t.Fatal(err)
		}
		if err := g.Add(sink); err != nil {
			t.Fatal(err)
		}
		nc, err := link.Connect(media.MBPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.ConnectVia(outer, "out", sink, "in", nc); err != nil {
			t.Fatal(err)
		}
		sinks[b] = map[string]*frameSink{"v": wv, "a": wa, "s": ws}
	}

	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)}); err != nil {
		t.Fatal(err)
	}
	for b, bySink := range sinks {
		for track, w := range bySink {
			if len(w.arrived) != frames {
				t.Fatalf("branch %d track %s: %d frames arrived, want %d", b, track, len(w.arrived), frames)
			}
			for i, got := range w.arrived {
				at := avtime.RateVideo30.DurationOf(avtime.ObjectTime(i))
				if got-at != want[track] {
					t.Errorf("branch %d track %s frame %d: %v late, want %v", b, track, i, got-at, want[track])
				}
			}
		}
	}
}

// scriptedLatency is a frame source whose processing latency is a
// function of how many ticks it has executed.
type scriptedLatency struct {
	*frameSource
	calls int
	lat   func(call int) avtime.WorldTime
}

func (s *scriptedLatency) SampleLatency() avtime.WorldTime {
	s.calls++
	return s.lat(s.calls - 1)
}

func TestRunDrainsInFlightArrivals(t *testing.T) {
	// A source whose processing latency exceeds the tick interval leaves
	// chunks arriving after the last tick; the run must extend the clock
	// (and Elapsed) to cover the latest of them instead of cutting it
	// off — and only ever forwards.
	constant := func(int) avtime.WorldTime { return 100 * avtime.Millisecond }
	for _, tc := range []struct {
		name  string
		lat   func(call int) avtime.WorldTime
		ahead avtime.WorldTime // where another run on the shared clock left it before Finish
	}{
		{name: "tail past the last tick", lat: constant},
		{
			// The first chunk is the latest to arrive: the later, lower
			// arrivals must not lower LastArrival.
			name: "later arrivals are earlier",
			lat: func(call int) avtime.WorldTime {
				if call == 0 {
					return 900 * avtime.Millisecond
				}
				return 0
			},
		},
		// Finish never rewinds a clock another run already advanced.
		{name: "clock already past the tail", lat: constant, ahead: 5 * avtime.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph("tail")
			src := &scriptedLatency{frameSource: newFrameSource("src", AtDatabase), lat: tc.lat}
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
			if err := src.Bind(testValue(10), "out"); err != nil {
				t.Fatal(err)
			}
			if err := g.Start(); err != nil {
				t.Fatal(err)
			}
			clock := sched.NewVirtualClock(0)
			run, err := g.Begin(RunConfig{Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			for done := false; !done; {
				if done, err = run.Tick(); err != nil {
					t.Fatal(err)
				}
				run.Commit()
			}
			clock.AdvanceTo(tc.ahead)
			stats, err := run.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if len(sink.arrived) != 10 {
				t.Fatalf("delivered %d frames, want 10", len(sink.arrived))
			}
			var last avtime.WorldTime
			for _, a := range sink.arrived {
				last = max(last, a)
			}
			if stats.LastArrival != last {
				t.Errorf("LastArrival = %v, want %v", stats.LastArrival, last)
			}
			if now, want := clock.Now(), max(last, tc.ahead); now != want {
				t.Errorf("final clock %v, want %v (covers the last arrival, never rewinds)", now, want)
			}
			if stats.Elapsed != clock.Now() {
				t.Errorf("Elapsed %v is not the final clock reading %v", stats.Elapsed, clock.Now())
			}
		})
	}
}

// stopBomb is a sink whose teardown fails.
type stopBomb struct {
	*frameSink
	fail error
}

func (s *stopBomb) Stop() error {
	_ = s.frameSink.Stop()
	return s.fail
}

func TestStopErrorsSurface(t *testing.T) {
	errBoom := errors.New("device wedged")
	g := NewGraph("teardown")
	src := newFrameSource("src", AtDatabase)
	bomb := &stopBomb{frameSink: newFrameSink("sink", AtApplication), fail: errBoom}
	if err := g.Add(src); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(bomb); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(src, "out", bomb, "in"); err != nil {
		t.Fatal(err)
	}
	if err := src.Bind(testValue(3), "out"); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	stats, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(stats.StopErr, errBoom) {
		t.Errorf("StopErr = %v, want wrapped %v", stats.StopErr, errBoom)
	}
	if got := g.Stop(); !errors.Is(got, errBoom) {
		t.Errorf("Graph.Stop = %v, want wrapped %v", got, errBoom)
	}
}

// TestRunPlanStoppedNodePublishesNothing guards what reading a
// producer's retained tick context could break: a node that does not
// tick must publish nothing that tick.  The relay between source and
// sink is stopped mid-run — its last output is still in its context —
// and the sink must see a gap, not that chunk again; restarted, the
// relay resumes from the source's current frame.
func TestRunPlanStoppedNodePublishesNothing(t *testing.T) {
	g := NewGraph("gap")
	src := newFrameSource("src", AtDatabase)
	mid := newRelay("mid")
	sink := newFrameSink("sink", AtDatabase)
	for _, a := range []Activity{src, mid, sink} {
		if err := g.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Bind(testValue(12), "out"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(src, "out", mid, "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(mid, "out", sink, "in"); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	run, err := g.Begin(RunConfig{Clock: sched.NewVirtualClock(0)})
	if err != nil {
		t.Fatal(err)
	}
	ticks := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if done, err := run.Tick(); err != nil || done {
				t.Fatalf("tick: done=%v err=%v", done, err)
			}
			run.Commit()
		}
	}
	ticks(3)
	if len(sink.frames) != 3 {
		t.Fatalf("sink holds %d frames after 3 ticks", len(sink.frames))
	}
	if err := mid.Stop(); err != nil {
		t.Fatal(err)
	}
	ticks(4)
	if len(sink.frames) != 3 {
		t.Fatalf("sink holds %d frames: %d arrived while its producer was stopped", len(sink.frames), len(sink.frames)-3)
	}
	if err := mid.Start(); err != nil {
		t.Fatal(err)
	}
	ticks(2)
	if len(sink.frames) != 5 {
		t.Fatalf("sink holds %d frames after the restart, want 5", len(sink.frames))
	}
	// The frames the source produced during the gap are gone, not queued.
	want, _ := testValue(12).Frame(7)
	if got := sink.frames[3]; got.Pix[0] != want.Pix[0] {
		t.Errorf("first frame after the restart is not the source's eighth")
	}
	stats, err := run.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Nothing crosses a connection into a stopped node either.
	if stats.Chunks != 5+5 {
		t.Errorf("run moved %d chunks, want 5 into the relay + 5 into the sink", stats.Chunks)
	}
}
