package obs

import (
	"sort"

	"avdb/internal/avtime"
)

// Collector is the recording Sink: a Tracer plus a Registry with a
// deterministic Snapshot.  One Collector serves a whole database
// instance; install it at the pipeline's instrumentation points and read
// it back with Snapshot.
type Collector struct {
	tracer *Tracer
	reg    *Registry
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{tracer: NewTracer(), reg: NewRegistry()}
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

// Count implements Sink.
func (c *Collector) Count(name string, delta int64) { c.reg.Count(name, delta) }

// SetGauge implements Sink.
func (c *Collector) SetGauge(name string, value int64) { c.reg.SetGauge(name, value) }

// Observe implements Sink.
func (c *Collector) Observe(name string, value int64) { c.reg.Observe(name, value) }

// Snapshot captures the collector's state: metrics sorted by name and
// spans in ID order.  Two runs of the same seeded workload produce
// byte-identical snapshot renditions.
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{Spans: c.tracer.Spans()}
	c.reg.mu.Lock()
	for name, v := range c.reg.counters {
		s.Counters = append(s.Counters, MetricValue{Name: name, Value: v})
	}
	for name, v := range c.reg.gauges {
		s.Gauges = append(s.Gauges, MetricValue{Name: name, Value: v})
	}
	for name, h := range c.reg.hists {
		cp := *h
		cp.Bounds = append([]int64(nil), h.Bounds...)
		cp.Counts = append([]int64(nil), h.Counts...)
		s.Histograms = append(s.Histograms, NamedHistogram{Name: name, Hist: &cp})
	}
	c.reg.mu.Unlock()
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
