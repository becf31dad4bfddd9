package activity

import (
	"testing"

	"avdb/internal/media"
	"avdb/internal/obs"
	"avdb/internal/sched"
)

// benchGraph builds the three-stage chain used to measure instrumentation
// overhead on the chunk hot path.
func benchGraph(tb testing.TB, frames int) (*Graph, *benchSink) {
	v := media.NewVideoValue(media.TypeRawVideo30, 32, 24, 8)
	for i := 0; i < frames; i++ {
		if err := v.AppendFrame(media.NewFrame(32, 24, 8)); err != nil {
			tb.Fatal(err)
		}
	}
	g := NewGraph("bench")
	src := newBenchSource("src", v)
	inv := newBenchInverter("inv")
	sink := newBenchSink("sink")
	for _, a := range []Activity{src, inv, sink} {
		if err := g.Add(a); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := g.Connect(src, "out", inv, "in"); err != nil {
		tb.Fatal(err)
	}
	if _, err := g.Connect(inv, "out", sink, "in"); err != nil {
		tb.Fatal(err)
	}
	return g, sink
}

// BenchmarkGraphRunSinkOverhead compares an uninstrumented run against
// the same run with the zero-value no-op sink installed, and with a
// recording collector.  The acceptance bar for the observability layer
// is that nop stays within 5% of nil: the hot path pays only nil checks
// and no-op calls, never allocation or formatting.  The collector case
// prices recording: one closed chunk span and one histogram observation
// per chunk.
func BenchmarkGraphRunSinkOverhead(b *testing.B) {
	const frames = 300
	for _, bc := range []struct {
		name string
		sink func() obs.Sink
	}{
		{"nil", func() obs.Sink { return nil }},
		{"nop", func() obs.Sink { return obs.NopSink{} }},
		{"collector", func() obs.Sink { return obs.NewCollector() }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, sink := benchGraph(b, frames)
				if err := g.Start(); err != nil {
					b.Fatal(err)
				}
				s := bc.sink()
				b.StartTimer()
				if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0), Obs: s}); err != nil {
					b.Fatal(err)
				}
				if sink.n != frames {
					b.Fatalf("delivered %d", sink.n)
				}
			}
		})
	}
}

// TestNopSinkChunkPathDoesNotAllocate verifies the allocation half of the
// overhead bar: with the no-op sink, per-chunk instrumentation must not
// allocate, and with a recording collector it allocates under 0.01
// times a chunk (a new span block every 1024 spans, a new attribute
// slab every 4096 attributes).  The run-level setup (span slices, the
// collector's registry) may cost a few fixed allocations, so the test
// streams enough frames that any per-chunk allocation would dominate
// the difference.
func TestNopSinkChunkPathDoesNotAllocate(t *testing.T) {
	run := func(frames int, s obs.Sink) float64 {
		return testing.AllocsPerRun(10, func() {
			g, sink := benchGraph(t, frames)
			if err := g.Start(); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Run(RunConfig{Clock: sched.NewVirtualClock(0), Obs: s}); err != nil {
				t.Fatal(err)
			}
			if sink.n != frames {
				t.Fatalf("delivered %d", sink.n)
			}
		})
	}
	bare := run(200, nil)
	nop := run(200, obs.NopSink{})
	// Allow the fixed per-run span bookkeeping but nothing proportional
	// to the stream: 200 frames x 2 connections would show up as >=400
	// extra allocations if the chunk path allocated even once per chunk.
	if delta := nop - bare; delta > 16 {
		t.Errorf("NopSink run allocates %.0f more than uninstrumented (bare=%.0f nop=%.0f); chunk path must be allocation-free", delta, bare, nop)
	}

	// Every run records into one collector; AllocsPerRun's warm-up run
	// creates its metrics.
	const frames, chunks = 1000, 2 * 1000
	bare = run(frames, nil)
	col := run(frames, obs.NewCollector())
	perChunk := (col - bare) / chunks
	t.Logf("collector: %.4f allocations a chunk", perChunk)
	if perChunk >= 0.01 {
		t.Errorf("Collector run allocates %.4f more a chunk than uninstrumented (bare=%.0f collector=%.0f); want < 0.01", perChunk, bare, col)
	}
}
