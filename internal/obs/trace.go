package obs

import (
	"sync"

	"avdb/internal/avtime"
)

// Attr is one integer span attribute in insertion order.
type Attr struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// Span is one recorded span.  Start and End are world times; an open
// span has Open true and End equal to its start.
type Span struct {
	ID     SpanID           `json:"id"`
	Parent SpanID           `json:"parent,omitempty"`
	Kind   string           `json:"kind"`
	Name   string           `json:"name"`
	Start  avtime.WorldTime `json:"start"`
	End    avtime.WorldTime `json:"end"`
	Open   bool             `json:"open,omitempty"`
	Attrs  []Attr           `json:"attrs,omitempty"`
}

// spanBlock is the number of spans one tracer block holds.
const spanBlock = 1024

// attrSlab is the number of attributes one tracer slab holds.
const attrSlab = 4096

// Tracer records spans.  IDs are assigned in call order, so a
// single-goroutine workload (the discrete-event graph runner) produces
// identical traces on every run.
//
// Span id i lives at position (i-1)%spanBlock of block (i-1)/spanBlock.
// Blocks are fixed-size and never move, so Begin neither copies nor
// re-zeroes a recorded span, and End and Attr index their span directly.
// A span's attributes live in a slab, a fixed-size array the tracer
// fills from the front: recording one costs no allocation until the
// slab fills, and full slabs stay referenced by their spans.
type Tracer struct {
	mu     sync.Mutex
	blocks []*[spanBlock]Span
	n      int    // spans recorded
	slab   []Attr // current attribute slab
	nattrs int    // attributes recorded over all spans
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{}
}

// Begin opens a span under parent (NoSpan for a root).
func (t *Tracer) Begin(parent SpanID, kind, name string, at avtime.WorldTime) SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(parent, kind, name, at)
}

// Closed records a span already closed, from start to end, with one
// attribute: Begin, Attr and End under one lock.
func (t *Tracer) Closed(parent SpanID, kind, name string, start, end avtime.WorldTime, a Attr) SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.beginLocked(parent, kind, name, start)
	s := t.span(id)
	t.attrLocked(s, a)
	s.Open = false
	if end > start {
		s.End = end
	}
	return id
}

// beginLocked records an open span; the caller holds t.mu.
func (t *Tracer) beginLocked(parent SpanID, kind, name string, at avtime.WorldTime) SpanID {
	i := t.n
	if i%spanBlock == 0 {
		t.blocks = append(t.blocks, new([spanBlock]Span))
	}
	t.n++
	id := SpanID(t.n)
	t.blocks[i/spanBlock][i%spanBlock] = Span{
		ID: id, Parent: parent, Kind: kind, Name: name,
		Start: at, End: at, Open: true,
	}
	return id
}

// span returns the recorded span with the given id, or nil.  The caller
// holds t.mu.
func (t *Tracer) span(id SpanID) *Span {
	if id < 1 || id > SpanID(t.n) {
		return nil
	}
	i := int(id - 1)
	return &t.blocks[i/spanBlock][i%spanBlock]
}

// End closes a span.  Ending NoSpan, an unknown span, or a span that is
// already closed is a no-op.
func (t *Tracer) End(id SpanID, at avtime.WorldTime) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.span(id)
	if s == nil || !s.Open {
		return
	}
	s.Open = false
	if at > s.Start {
		s.End = at
	}
}

// Attr attaches an integer attribute to a span.  Unknown spans are
// ignored; attributes may be added to closed spans (e.g. totals stamped
// after the fact).
func (t *Tracer) Attr(id SpanID, key string, value int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.span(id); s != nil {
		t.attrLocked(s, Attr{Key: key, Value: value})
	}
}

// attrLocked appends a to s's attributes; the caller holds t.mu.  A
// span's first attribute takes one slab slot.  A later one that finds
// no room reserved moves the span's attributes to the slab's tail and
// reserves as many slots again, so a span's attributes stay contiguous
// at amortized constant cost.
func (t *Tracer) attrLocked(s *Span, a Attr) {
	t.nattrs++
	if len(s.Attrs) < cap(s.Attrs) {
		s.Attrs = append(s.Attrs, a)
		return
	}
	room := 1
	if n := len(s.Attrs); n > 0 {
		room = 2 * (n + 1)
	}
	if cap(t.slab)-len(t.slab) < room {
		t.slab = make([]Attr, 0, max(attrSlab, room))
	}
	start := len(t.slab)
	t.slab = append(t.slab, s.Attrs...)
	t.slab = append(t.slab, a)
	s.Attrs = t.slab[start : len(t.slab) : start+room]
	t.slab = t.slab[:start+room]
}

// Spans returns a copy of the recorded spans in ID order.  Their
// attributes share one backing array, each span's capped to its own.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, t.n)
	for b, blk := range t.blocks {
		copy(out[b*spanBlock:], blk[:])
	}
	attrs := make([]Attr, 0, t.nattrs)
	for i := range out {
		if len(out[i].Attrs) == 0 {
			continue
		}
		start := len(attrs)
		attrs = append(attrs, out[i].Attrs...)
		out[i].Attrs = attrs[start:len(attrs):len(attrs)]
	}
	return out
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}
