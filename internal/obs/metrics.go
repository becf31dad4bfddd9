package obs

import (
	"sort"
	"sync"

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

// Histogram accumulates observations into fixed buckets.  Counts[i]
// holds observations ≤ Bounds[i]; the final element of Counts holds the
// overflow.
type Histogram struct {
	Bounds []int64
	Counts []int64
	N      int64
	Sum    int64
	Min    int64
	Max    int64
}

func newHistogram(bounds []int64) *Histogram {
	return &Histogram{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
}

func (h *Histogram) observe(v int64) {
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

// Registry holds the named metrics: monotone counters, last-value
// gauges, and fixed-bucket histograms.  Metrics are created on first
// touch; histograms always use DefaultBuckets so layouts never diverge.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Count adds delta to the named counter.
func (r *Registry) Count(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// SetGauge sets the named gauge.
func (r *Registry) SetGauge(name string, value int64) {
	r.mu.Lock()
	r.gauges[name] = value
	r.mu.Unlock()
}

// Observe records one value into the named histogram.
func (r *Registry) Observe(name string, value int64) {
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(DefaultBuckets)
		r.hists[name] = h
	}
	h.observe(value)
	r.mu.Unlock()
}
