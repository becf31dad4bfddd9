package obs

import "avdb/internal/avtime"

// Collector is the recording Sink: a Tracer plus a metric registry with
// a deterministic Snapshot.  One Collector serves a whole database
// instance; install it at the pipeline's instrumentation points and read
// it back with Snapshot.
type Collector struct {
	tracer *Tracer
	reg    *registry
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{tracer: NewTracer(), reg: newRegistry()}
}

// Tracer exposes the collector's span store.
func (c *Collector) Tracer() *Tracer { return c.tracer }

// BeginSpan implements Sink.
func (c *Collector) BeginSpan(parent SpanID, kind, name string, at avtime.WorldTime) SpanID {
	return c.tracer.Begin(parent, kind, name, at)
}

// EndSpan implements Sink.
func (c *Collector) EndSpan(id SpanID, at avtime.WorldTime) { c.tracer.End(id, at) }

// SpanAttr implements Sink.
func (c *Collector) SpanAttr(id SpanID, key string, value int64) { c.tracer.Attr(id, key, value) }

// ChunkSpan implements Sink.
func (c *Collector) ChunkSpan(parent SpanID, name string, start, end avtime.WorldTime, seq int64) {
	c.tracer.Closed(parent, KindChunk, name, start, end, Attr{Key: "seq", Value: seq})
}

// Counter implements Sink.  Every call with one name returns the same
// handle.
func (c *Collector) Counter(name string) *Counter { return c.reg.counter(name) }

// Gauge implements Sink.
func (c *Collector) Gauge(name string) *Gauge { return c.reg.gauge(name) }

// Histogram implements Sink.
func (c *Collector) Histogram(name string) *Histogram { return c.reg.histogram(name) }

// Snapshot captures the collector's state: touched metrics sorted by
// name and spans in ID order.  Two runs of the same seeded workload
// produce byte-identical snapshot renditions.
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{Spans: c.tracer.Spans()}
	c.reg.snapshot(s)
	return s
}
