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

// Tracer records spans.  IDs are assigned in call order, so a
// single-goroutine workload (the discrete-event graph runner) produces
// identical traces on every run.
//
// Span id i lives at position (i-1)%spanBlock of block (i-1)/spanBlock.
// Blocks are fixed-size and never move, so Begin neither copies nor
// re-zeroes a recorded span, and End and Attr index their span directly.
type Tracer struct {
	mu     sync.Mutex
	blocks []*[spanBlock]Span
	n      int // spans recorded
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{}
}

// Begin opens a span under parent (NoSpan for a root).
func (t *Tracer) Begin(parent SpanID, kind, name string, at avtime.WorldTime) SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
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
		s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	}
}

// Spans returns a copy of the recorded spans in ID order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, t.n)
	for b, blk := range t.blocks {
		copy(out[b*spanBlock:], blk[:])
	}
	for i := range out {
		out[i].Attrs = append([]Attr(nil), out[i].Attrs...)
	}
	return out
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}
