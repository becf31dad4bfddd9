// Package obs is the AV database's observability subsystem: span-based
// tracing keyed to the virtual presentation clock, a metrics registry
// (counters, gauges, fixed-bucket histograms), and deterministic export
// surfaces.
//
// The paper's client interface is asynchronous and stream-based (§3.3):
// clients start transfers and learn what happened through event
// notifications.  That makes visibility into scheduling, data rates and
// deadline misses a first-class database concern — a playback must be
// reconstructible after the fact as nested spans (session → playback →
// connection → chunk) and summarized as per-stream QoS metrics.
//
// Everything is measured in world time read from the virtual clock, so
// two runs of the same seeded workload produce byte-identical traces and
// metric snapshots: there is no wall-clock nondeterminism anywhere in
// the subsystem.
//
// Instrumentation points across the pipeline accept a Sink.  A nil Sink
// disables instrumentation entirely; the NopSink discards everything
// while exercising the call path.
//
// Metrics are handles, not names.  Where a sink is installed (a
// component's SetSink, a storage stream's open, a graph run's Begin),
// the instrumentation point resolves a *Counter, *Gauge or *Histogram
// per metric once; the hot path then calls Add, Set or Observe on the
// handle: an atomic for counters and gauges, the histogram's own lock
// for a histogram, and never a map lookup or the registry's lock.  A nil
// handle records nothing, so with no sink installed the handles are nil
// and the call sites carry no guard.  A metric enters a Snapshot on its
// first touch, not when its handle is resolved.
//
// A chunk delivery is recorded as one closed span under one tracer
// lock, and span attributes come from tracer-owned slabs, so the
// Collector's per-chunk path makes no allocation beyond a new span
// block or slab every few thousand chunks; nil and NopSink make none
// (both are test-verified in the activity package).
package obs

import "avdb/internal/avtime"

// SpanID identifies one span within a Tracer.  IDs are assigned
// sequentially from 1; NoSpan (zero) is "no parent" / "not recorded".
type SpanID int64

// NoSpan is the zero SpanID: no parent, or tracing disabled.
const NoSpan SpanID = 0

// Span kinds used by the pipeline.  The nesting is
// session → playback → activity/connection → chunk.
const (
	KindSession    = "session"
	KindPlayback   = "playback"
	KindActivity   = "activity"
	KindConnection = "connection"
	KindChunk      = "chunk"
)

// Sink receives instrumentation from the pipeline.  Implementations must
// be safe for concurrent use; all times are world times read from the
// caller's clock.  The Collector is the recording implementation and
// NopSink the discarding one.  Metrics are recorded through handles
// (see the package comment).
type Sink interface {
	// BeginSpan opens a span under parent (NoSpan for a root) and
	// returns its ID.
	BeginSpan(parent SpanID, kind, name string, at avtime.WorldTime) SpanID
	// EndSpan closes an open span.  Ending NoSpan or an already-ended
	// span is a no-op.
	EndSpan(id SpanID, at avtime.WorldTime)
	// SpanAttr attaches an integer attribute to a span.
	SpanAttr(id SpanID, key string, value int64)
	// ChunkSpan records one chunk delivery as a closed KindChunk span
	// under parent, from start to end, with its seq attribute: the
	// same span BeginSpan, SpanAttr and EndSpan would record.
	ChunkSpan(parent SpanID, name string, start, end avtime.WorldTime, seq int64)
	// Counter returns the handle on the named counter.
	Counter(name string) *Counter
	// Gauge returns the handle on the named gauge.
	Gauge(name string) *Gauge
	// Histogram returns the handle on the named histogram.
	Histogram(name string) *Histogram
}

// NopSink is a Sink that records nothing.  The zero value is ready to
// use; its methods never allocate and its handles are nil, making it the
// cheapest way to keep instrumented call sites exercised without
// collecting anything.
type NopSink struct{}

// BeginSpan implements Sink.
func (NopSink) BeginSpan(SpanID, string, string, avtime.WorldTime) SpanID { return NoSpan }

// EndSpan implements Sink.
func (NopSink) EndSpan(SpanID, avtime.WorldTime) {}

// SpanAttr implements Sink.
func (NopSink) SpanAttr(SpanID, string, int64) {}

// ChunkSpan implements Sink.
func (NopSink) ChunkSpan(SpanID, string, avtime.WorldTime, avtime.WorldTime, int64) {}

// Counter implements Sink with a nil handle.
func (NopSink) Counter(string) *Counter { return nil }

// Gauge implements Sink with a nil handle.
func (NopSink) Gauge(string) *Gauge { return nil }

// Histogram implements Sink with a nil handle.
func (NopSink) Histogram(string) *Histogram { return nil }
