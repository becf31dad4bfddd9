package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"avdb/internal/avtime"
)

// DefaultBuckets is the fixed histogram bucket layout used by every
// pipeline histogram: upper bounds in microseconds (world-time units),
// spanning one millisecond to ten seconds.  A fixed layout keeps
// snapshots byte-comparable across runs and across code versions.
var DefaultBuckets = []int64{
	int64(avtime.Millisecond),
	int64(2 * avtime.Millisecond),
	int64(5 * avtime.Millisecond),
	int64(10 * avtime.Millisecond),
	int64(20 * avtime.Millisecond),
	int64(50 * avtime.Millisecond),
	int64(100 * avtime.Millisecond),
	int64(200 * avtime.Millisecond),
	int64(500 * avtime.Millisecond),
	int64(avtime.Second),
	int64(2 * avtime.Second),
	int64(5 * avtime.Second),
	int64(10 * avtime.Second),
}

// Counter is a handle on one monotone counter.  A nil *Counter is a
// valid handle that records nothing, so instrumented code calls Add
// without checking whether a sink is installed.
type Counter struct {
	v       atomic.Int64
	touched atomic.Bool
}

// Add adds delta to the counter.  Add(0) still makes the counter appear
// in snapshots.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
	if !c.touched.Load() {
		c.touched.Store(true)
	}
}

// Gauge is a handle on one last-value gauge; a nil *Gauge records
// nothing.
type Gauge struct {
	v       atomic.Int64
	touched atomic.Bool
}

// Set sets the gauge.
func (g *Gauge) Set(value int64) {
	if g == nil {
		return
	}
	g.v.Store(value)
	if !g.touched.Load() {
		g.touched.Store(true)
	}
}

// Histogram is a handle on one fixed-bucket histogram; a nil
// *Histogram records nothing.  Observations take the histogram's own
// lock, never the registry's.
type Histogram struct {
	mu sync.Mutex
	v  HistogramValue
}

// Observe records one value.
func (h *Histogram) Observe(value int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.v.observe(value)
	h.mu.Unlock()
}

// HistogramValue is a histogram's reading.  Counts[i] holds
// observations ≤ Bounds[i]; the final element of Counts holds the
// overflow.
type HistogramValue struct {
	Bounds []int64
	Counts []int64
	N      int64
	Sum    int64
	Min    int64
	Max    int64
}

func (h *HistogramValue) observe(v int64) {
	i := sort.Search(len(h.Bounds), func(i int) bool { return v <= h.Bounds[i] })
	h.Counts[i]++
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if h.N == 0 || v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
}

// registry holds the named metric handles: monotone counters,
// last-value gauges, and fixed-bucket histograms.  Resolving a name
// creates its handle; the metric enters snapshots on its first touch
// (Add, Set or Observe), so resolving alone leaves no trace.
// Histograms always use DefaultBuckets so layouts never diverge.
type registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

func newRegistry() *registry {
	return &registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

func (r *registry) counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

func (r *registry) gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

func (r *registry) histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{v: HistogramValue{Bounds: DefaultBuckets, Counts: make([]int64, len(DefaultBuckets)+1)}}
		r.hists[name] = h
	}
	return h
}

// snapshot fills s's metric sections with every touched metric, sorted
// by name.
func (r *registry) snapshot(s *Snapshot) {
	r.mu.Lock()
	for name, c := range r.counters {
		if c.touched.Load() {
			s.Counters = append(s.Counters, MetricValue{Name: name, Value: c.v.Load()})
		}
	}
	for name, g := range r.gauges {
		if g.touched.Load() {
			s.Gauges = append(s.Gauges, MetricValue{Name: name, Value: g.v.Load()})
		}
	}
	for name, h := range r.hists {
		h.mu.Lock()
		if h.v.N > 0 {
			cp := h.v
			cp.Bounds = append([]int64(nil), h.v.Bounds...)
			cp.Counts = append([]int64(nil), h.v.Counts...)
			s.Histograms = append(s.Histograms, NamedHistogram{Name: name, Hist: &cp})
		}
		h.mu.Unlock()
	}
	r.mu.Unlock()
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
}
