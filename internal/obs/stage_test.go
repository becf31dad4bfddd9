package obs

import (
	"testing"

	"avdb/internal/avtime"
)

// driveSink emits a representative telemetry sequence — nested spans,
// attrs, counters, gauges, histograms, a parent referenced after its
// child ends — and returns the ids BeginSpan handed back.
func driveSink(s Sink) []SpanID {
	var ids []SpanID
	root := s.BeginSpan(NoSpan, KindSession, "sess", 0)
	ids = append(ids, root)
	s.SpanAttr(root, "rate", 30)
	child := s.BeginSpan(root, KindChunk, "chunk", 10*avtime.Millisecond)
	ids = append(ids, child)
	s.SpanAttr(child, "seq", 1)
	s.Count("chunks", 1)
	s.Observe("latency_us", 250)
	s.EndSpan(child, 12*avtime.Millisecond)
	s.SetGauge("active", 1)
	sibling := s.BeginSpan(root, KindChunk, "chunk", 20*avtime.Millisecond)
	ids = append(ids, sibling)
	s.EndSpan(sibling, 21*avtime.Millisecond)
	s.EndSpan(root, 30*avtime.Millisecond)
	return ids
}

// TestStageReplayMatchesDirect is the stage's core guarantee: staging a
// sequence and flushing it into a collector produces a byte-identical
// snapshot to emitting the same sequence directly.
func TestStageReplayMatchesDirect(t *testing.T) {
	direct := NewCollector()
	driveSink(direct)
	want, err := direct.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}

	staged := NewCollector()
	var stage Stage
	ids := driveSink(&stage)
	for _, id := range ids {
		if id >= 0 {
			t.Fatalf("staged BeginSpan returned non-provisional id %v", id)
		}
	}
	if len(stage.ops) == 0 {
		t.Fatal("nothing staged")
	}
	stage.Flush(staged)
	if len(stage.ops) != 0 {
		t.Fatalf("%d ops left after Flush", len(stage.ops))
	}
	got, err := staged.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("staged replay diverged from direct emission:\n got: %s\nwant: %s", got, want)
	}
}

// TestStageCrossFlushParents covers the engine's actual usage: a span
// begun in one flush cycle (a playback span at Begin) is referenced —
// attributed, parented under, ended — by operations staged in later
// cycles.  Real positive ids must pass through replay untouched.
func TestStageCrossFlushParents(t *testing.T) {
	direct := NewCollector()
	droot := direct.BeginSpan(NoSpan, KindPlayback, "pb", 0)
	dc := direct.BeginSpan(droot, KindChunk, "chunk", avtime.Millisecond)
	direct.EndSpan(dc, 2*avtime.Millisecond)
	direct.SpanAttr(droot, "ticks", 1)
	direct.EndSpan(droot, 3*avtime.Millisecond)
	want, err := direct.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}

	col := NewCollector()
	root := col.BeginSpan(NoSpan, KindPlayback, "pb", 0) // real id, pre-staging
	var stage Stage
	c := stage.BeginSpan(root, KindChunk, "chunk", avtime.Millisecond)
	stage.EndSpan(c, 2*avtime.Millisecond)
	stage.Flush(col)
	// Second cycle reuses the same buffers and still resolves the real id.
	stage.SpanAttr(root, "ticks", 1)
	stage.EndSpan(root, 3*avtime.Millisecond)
	stage.Flush(col)
	got, err := col.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cross-flush replay diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestStageFlushNil drops the buffer without touching a sink.
func TestStageFlushNil(t *testing.T) {
	var stage Stage
	id := stage.BeginSpan(NoSpan, KindSession, "s", 0)
	stage.EndSpan(id, avtime.Millisecond)
	stage.Flush(nil)
	if len(stage.ops) != 0 {
		t.Fatalf("%d ops left after nil Flush", len(stage.ops))
	}
	// Provisional numbering restarts; a fresh cycle must still resolve.
	col := NewCollector()
	id2 := stage.BeginSpan(NoSpan, KindSession, "s2", 0)
	stage.EndSpan(id2, avtime.Millisecond)
	stage.Flush(col)
	snap := col.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "s2" {
		t.Fatalf("unexpected spans after reset: %+v", snap.Spans)
	}
}
