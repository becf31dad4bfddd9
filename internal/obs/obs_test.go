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
	r := NewRegistry()
	r.Count("a", 2)
	r.Count("a", 3)
	r.SetGauge("g", 7)
	r.SetGauge("g", 9)
	for _, v := range []int64{int64(avtime.Millisecond) / 2, int64(3 * avtime.Millisecond), int64(60 * avtime.Second)} {
		r.Observe("h", v)
	}
	if got := r.counters["a"]; got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got, ok := r.gauges["g"]; !ok || got != 9 {
		t.Errorf("gauge = %d,%v, want 9,true", got, ok)
	}
	h := r.hists["h"]
	if h == nil || h.N != 3 {
		t.Fatalf("histogram missing or wrong count: %+v", h)
	}
	if h.Counts[0] != 1 { // ≤ 1ms
		t.Errorf("bucket 0 = %d, want 1", h.Counts[0])
	}
	if h.Counts[len(h.Counts)-1] != 1 { // overflow
		t.Errorf("overflow bucket = %d, want 1", h.Counts[len(h.Counts)-1])
	}
	if h.Min != int64(avtime.Millisecond)/2 || h.Max != int64(60*avtime.Second) {
		t.Errorf("min/max = %d/%d", h.Min, h.Max)
	}
}

func TestCollectorSnapshotDeterministic(t *testing.T) {
	build := func() *Snapshot {
		c := NewCollector()
		s := c.BeginSpan(NoSpan, KindSession, "s", 0)
		p := c.BeginSpan(s, KindPlayback, "p", 5)
		c.SpanAttr(p, "ticks", 3)
		c.Count("stream.chunks", 10)
		c.Count("stream.bytes", 1<<20)
		c.SetGauge("admission.used_buffers", 2)
		c.Observe("stream.chunk_latency_us", int64(12*avtime.Millisecond))
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
				c.Count("n", 1)
				c.SetGauge("g", int64(j))
				c.Observe("h", int64(j))
			}
		}()
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Counter("n") != 8*200 {
		t.Errorf("counter n = %d, want %d", snap.Counter("n"), 8*200)
	}
	if len(snap.Spans) != 8*200 {
		t.Errorf("spans = %d, want %d", len(snap.Spans), 8*200)
	}
}

// The no-op sink must not allocate: instrumented hot paths run with it
// (or with a nil Sink) in production configurations.
func TestNopSinkDoesNotAllocate(t *testing.T) {
	var sink Sink = NopSink{}
	allocs := testing.AllocsPerRun(1000, func() {
		id := sink.BeginSpan(NoSpan, KindChunk, "c", 0)
		sink.SpanAttr(id, "seq", 1)
		sink.Count("stream.chunks", 1)
		sink.Observe("stream.chunk_latency_us", 42)
		sink.SetGauge("g", 1)
		sink.EndSpan(id, 1)
	})
	if allocs != 0 {
		t.Fatalf("NopSink allocates %v per op, want 0", allocs)
	}
}
