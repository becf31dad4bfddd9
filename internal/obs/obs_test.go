package obs

import (
	"strings"
	"sync"
	"testing"

	"avdb/internal/avtime"
)

func TestTracerSpanLifecycle(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(NoSpan, KindSession, "sess-1", 0)
	child := tr.Begin(root, KindPlayback, "pb", 10)
	tr.Attr(child, "chunks", 42)
	tr.End(child, 100)
	tr.End(root, 200)
	tr.End(root, 300) // double end is a no-op

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].ID != root || spans[0].Parent != NoSpan || spans[0].End != 200 || spans[0].Open {
		t.Errorf("root span wrong: %+v", spans[0])
	}
	if spans[1].Parent != root || spans[1].End-spans[1].Start != 90 {
		t.Errorf("child span wrong: %+v", spans[1])
	}
	if len(spans[1].Attrs) != 1 || spans[1].Attrs[0] != (Attr{"chunks", 42}) {
		t.Errorf("child attrs wrong: %+v", spans[1].Attrs)
	}
}

func TestTracerEndUnknownIsNoop(t *testing.T) {
	tr := NewTracer()
	tr.End(NoSpan, 10)
	tr.End(99, 10)
	tr.Attr(99, "k", 1)
	if tr.Len() != 0 {
		t.Fatalf("phantom spans recorded")
	}
}

func TestRegistryMetrics(t *testing.T) {
	r := newRegistry()
	r.counter("a").Add(2)
	r.counter("a").Add(3)
	r.gauge("g").Set(7)
	r.gauge("g").Set(9)
	h := r.histogram("h")
	for _, v := range []int64{int64(avtime.Millisecond) / 2, int64(3 * avtime.Millisecond), int64(60 * avtime.Second)} {
		h.Observe(v)
	}
	if r.counter("a") != r.counter("a") || r.histogram("h") != h {
		t.Errorf("resolving a name twice returned two handles")
	}
	var s Snapshot
	r.snapshot(&s)
	if got := s.Counter("a"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if len(s.Gauges) != 1 || s.Gauges[0] != (MetricValue{"g", 9}) {
		t.Errorf("gauges = %v, want [{g 9}]", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Hist.N != 3 {
		t.Fatalf("histogram missing or wrong count: %+v", s.Histograms)
	}
	v := s.Histograms[0].Hist
	if v.Counts[0] != 1 { // ≤ 1ms
		t.Errorf("bucket 0 = %d, want 1", v.Counts[0])
	}
	if v.Counts[len(v.Counts)-1] != 1 { // overflow
		t.Errorf("overflow bucket = %d, want 1", v.Counts[len(v.Counts)-1])
	}
	if v.Min != int64(avtime.Millisecond)/2 || v.Max != int64(60*avtime.Second) {
		t.Errorf("min/max = %d/%d", v.Min, v.Max)
	}
	// The snapshot owns its buckets: later observations do not reach it.
	h.Observe(1)
	if v.N != 3 || v.Counts[0] != 1 {
		t.Errorf("snapshot histogram changed under the caller: %+v", v)
	}
}

// TestUntouchedHandlesStayOutOfSnapshots: resolving a handle creates no
// metric; the first Add, Set or Observe does, Add(0) and Set(0)
// included, as the name-keyed calls did before handles.
func TestUntouchedHandlesStayOutOfSnapshots(t *testing.T) {
	c := NewCollector()
	cnt, g, h := c.Counter("c"), c.Gauge("g"), c.Histogram("h")
	if s := c.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("untouched handles appear: %+v", s)
	}
	cnt.Add(0)
	g.Set(0)
	s := c.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0] != (MetricValue{"c", 0}) {
		t.Errorf("counters after Add(0) = %v, want [{c 0}]", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0] != (MetricValue{"g", 0}) {
		t.Errorf("gauges after Set(0) = %v, want [{g 0}]", s.Gauges)
	}
	if s.Histograms != nil {
		t.Errorf("unobserved histogram appears: %+v", s.Histograms)
	}
	h.Observe(0)
	if s := c.Snapshot(); len(s.Histograms) != 1 || s.Histograms[0].Hist.N != 1 {
		t.Errorf("histograms after Observe = %+v", s.Histograms)
	}
}

// TestNilHandlesRecordNothing: a point without a sink holds nil handles
// and calls them unguarded.
func TestNilHandlesRecordNothing(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	c.Add(1)
	g.Set(1)
	h.Observe(1)
	var n NopSink
	if n.Counter("c") != nil || n.Gauge("g") != nil || n.Histogram("h") != nil {
		t.Errorf("NopSink hands out live handles")
	}
}

func TestCollectorSnapshotDeterministic(t *testing.T) {
	build := func() *Snapshot {
		c := NewCollector()
		s := c.BeginSpan(NoSpan, KindSession, "s", 0)
		p := c.BeginSpan(s, KindPlayback, "p", 5)
		c.SpanAttr(p, "ticks", 3)
		c.ChunkSpan(p, "a.out->b.in", 6, 9, 0)
		c.Counter("stream.chunks").Add(10)
		c.Counter("stream.bytes").Add(1 << 20)
		c.Gauge("admission.used_buffers").Set(2)
		c.Histogram("stream.chunk_latency_us").Observe(int64(12 * avtime.Millisecond))
		c.EndSpan(p, 50)
		c.EndSpan(s, 60)
		return c.Snapshot()
	}
	a, b := build(), build()
	at, bt := a.MetricsText()+a.TraceText(), b.MetricsText()+b.TraceText()
	if at != bt {
		t.Fatalf("snapshot text differs between identical runs:\n%s\n----\n%s", at, bt)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if aj != bj {
		t.Fatalf("snapshot JSON differs between identical runs")
	}
	if !strings.Contains(at, "counter stream.chunks") || !strings.Contains(at, "session \"s\"") {
		t.Errorf("snapshot text missing expected content:\n%s", at)
	}
	if a.Counter("stream.chunks") != 10 {
		t.Errorf("Counter accessor = %d", a.Counter("stream.chunks"))
	}
	if g := a.Gauges; len(g) != 1 || g[0] != (MetricValue{"admission.used_buffers", 2}) {
		t.Errorf("gauges = %v", g)
	}
	if h := a.Histograms; len(h) != 1 || h[0].Name != "stream.chunk_latency_us" || h[0].Hist.N != 1 {
		t.Errorf("histograms = %+v", h)
	}
}

func TestSnapshotTraceNesting(t *testing.T) {
	c := NewCollector()
	s := c.BeginSpan(NoSpan, KindSession, "sess", 0)
	p := c.BeginSpan(s, KindPlayback, "run", 0)
	conn := c.BeginSpan(p, KindConnection, "a.out->b.in", 0)
	ch := c.BeginSpan(conn, KindChunk, "a.out->b.in", 10)
	c.EndSpan(ch, 20)
	c.EndSpan(conn, 30)
	c.EndSpan(p, 30)
	c.EndSpan(s, 40)
	text := c.Snapshot().TraceText()
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) != 5 { // header + 4 spans
		t.Fatalf("got %d lines:\n%s", len(lines), text)
	}
	for i, prefix := range []string{"== trace ==", "session", "  playback", "    connection", "      chunk"} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
}

func TestCollectorConcurrentSafety(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				id := c.BeginSpan(NoSpan, KindChunk, "x", avtime.WorldTime(j))
				c.SpanAttr(id, "j", int64(j))
				c.EndSpan(id, avtime.WorldTime(j+1))
				c.ChunkSpan(id, "x", avtime.WorldTime(j), avtime.WorldTime(j+1), int64(j))
				c.Counter("n").Add(1)
				c.Gauge("g").Set(int64(j))
				c.Histogram("h").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Counter("n") != 8*200 {
		t.Errorf("counter n = %d, want %d", snap.Counter("n"), 8*200)
	}
	if len(snap.Spans) != 2*8*200 {
		t.Errorf("spans = %d, want %d", len(snap.Spans), 2*8*200)
	}
}

// TestHandlesRaceWithSnapshot records through shared handles from
// several goroutines while others take snapshots; run it under -race.
// Every snapshot sees each metric at or below its final value, and the
// last one sees the totals.
func TestHandlesRaceWithSnapshot(t *testing.T) {
	const writers, perWriter = 4, 500
	c := NewCollector()
	cnt, g, h := c.Counter("n"), c.Gauge("g"), c.Histogram("h")
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				cnt.Add(1)
				g.Set(int64(j))
				h.Observe(int64(j))
				c.ChunkSpan(NoSpan, "x", avtime.WorldTime(j), avtime.WorldTime(j+1), int64(j))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 50; k++ {
			s := c.Snapshot()
			if n := s.Counter("n"); n < 0 || n > writers*perWriter {
				t.Errorf("counter read %d mid-run", n)
			}
			for _, nh := range s.Histograms {
				var sum int64
				for _, b := range nh.Hist.Counts {
					sum += b
				}
				if sum != nh.Hist.N {
					t.Errorf("histogram buckets sum to %d, N = %d", sum, nh.Hist.N)
				}
			}
		}
	}()
	wg.Wait()
	<-done
	s := c.Snapshot()
	if s.Counter("n") != writers*perWriter || len(s.Spans) != writers*perWriter {
		t.Errorf("final counter %d, spans %d; want %d each", s.Counter("n"), len(s.Spans), writers*perWriter)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Hist.N != writers*perWriter {
		t.Errorf("final histograms = %+v", s.Histograms)
	}
}

// The no-op sink must not allocate: instrumented hot paths run with it
// (or with a nil Sink) in production configurations.
func TestNopSinkDoesNotAllocate(t *testing.T) {
	var sink Sink = NopSink{}
	allocs := testing.AllocsPerRun(1000, func() {
		id := sink.BeginSpan(NoSpan, KindChunk, "c", 0)
		sink.SpanAttr(id, "seq", 1)
		sink.ChunkSpan(id, "c", 0, 1, 1)
		sink.Counter("stream.chunks").Add(1)
		sink.Histogram("stream.chunk_latency_us").Observe(42)
		sink.Gauge("g").Set(1)
		sink.EndSpan(id, 1)
	})
	if allocs != 0 {
		t.Fatalf("NopSink allocates %v per op, want 0", allocs)
	}
}
