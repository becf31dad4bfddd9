package obs

import (
	"math/rand"
	"reflect"
	"testing"

	"avdb/internal/avtime"
)

// refTracer is the tracer as it stood before spans moved into fixed-size
// blocks: one slice of every span plus a map from id to position.  It is
// the oracle of TestTracerMatchesReference.
type refTracer struct {
	spans []Span
	index map[SpanID]int
}

func (t *refTracer) Begin(parent SpanID, kind, name string, at avtime.WorldTime) SpanID {
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Kind: kind, Name: name,
		Start: at, End: at, Open: true,
	})
	t.index[id] = len(t.spans) - 1
	return id
}

func (t *refTracer) End(id SpanID, at avtime.WorldTime) {
	i, ok := t.index[id]
	if !ok || !t.spans[i].Open {
		return
	}
	t.spans[i].Open = false
	if at > t.spans[i].Start {
		t.spans[i].End = at
	}
}

func (t *refTracer) Attr(id SpanID, key string, value int64) {
	i, ok := t.index[id]
	if !ok {
		return
	}
	t.spans[i].Attrs = append(t.spans[i].Attrs, Attr{Key: key, Value: value})
}

func (t *refTracer) Spans() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		out[i].Attrs = append([]Attr(nil), out[i].Attrs...)
	}
	return out
}

// TestTracerMatchesReference drives the block tracer and the reference
// with the same random Begin/End/Attr/Closed sequence (the reference
// records Closed as Begin, Attr and End), across several block
// boundaries and with calls on NoSpan, negative, past-the-end, closed and
// open ids, and requires identical spans throughout.
func TestTracerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewTracer(), &refTracer{index: make(map[SpanID]int)}
		// pick returns an id of any sort: recorded (open or closed),
		// NoSpan, negative, or past the end.
		pick := func() SpanID {
			n := SpanID(len(want.spans))
			switch rng.Intn(8) {
			case 0:
				return NoSpan
			case 1:
				return -SpanID(1 + rng.Intn(5))
			case 2:
				return n + SpanID(1+rng.Intn(3))
			default:
				if n == 0 {
					return 1
				}
				return 1 + SpanID(rng.Int63n(int64(n)))
			}
		}
		var now avtime.WorldTime
		for len(want.spans) < 3*spanBlock+300 {
			now += avtime.WorldTime(rng.Intn(3))
			switch op := rng.Intn(11); {
			case op == 10:
				parent, start, end, v := pick(), now, now+avtime.WorldTime(rng.Intn(4))-1, rng.Int63n(100)
				g := got.Closed(parent, KindChunk, "c", start, end, Attr{"seq", v})
				w := want.Begin(parent, KindChunk, "c", start)
				want.Attr(w, "seq", v)
				want.End(w, end)
				if g != w {
					t.Fatalf("seed %d: Closed = %d, want %d", seed, g, w)
				}
			case op < 5:
				parent, kind, name := pick(), KindChunk, "c"
				if g, w := got.Begin(parent, kind, name, now), want.Begin(parent, kind, name, now); g != w {
					t.Fatalf("seed %d: Begin = %d, want %d", seed, g, w)
				}
			case op < 8:
				id, at := pick(), now-avtime.WorldTime(rng.Intn(4))
				got.End(id, at)
				want.End(id, at)
			default:
				id, v := pick(), rng.Int63n(100)
				got.Attr(id, "k", v)
				want.Attr(id, "k", v)
			}
			if n := len(want.spans); n%spanBlock == 0 || n%spanBlock == 1 || rng.Intn(400) == 0 {
				if got.Len() != n {
					t.Fatalf("seed %d: Len = %d, want %d", seed, got.Len(), n)
				}
				if spans := got.Spans(); !reflect.DeepEqual(spans, want.Spans()) {
					t.Fatalf("seed %d: spans differ from the reference after %d spans", seed, n)
				}
			}
		}
		if spans := got.Spans(); !reflect.DeepEqual(spans, want.Spans()) {
			t.Fatalf("seed %d: final spans differ from the reference", seed)
		}
	}
}

// TestTracerSpansAreCopies: what Spans returns is the caller's; later
// recording does not reach into it.
func TestTracerSpansAreCopies(t *testing.T) {
	tr := NewTracer()
	id := tr.Begin(NoSpan, KindSession, "s", 0)
	tr.Attr(id, "a", 1)
	spans := tr.Spans()
	tr.Attr(id, "b", 2)
	tr.End(id, 5)
	if len(spans[0].Attrs) != 1 || !spans[0].Open {
		t.Errorf("returned span changed under the caller: %+v", spans[0])
	}
}

// TestTracerSpansShareOneAttrArray: Spans makes one allocation for the
// spans and one for every span's attributes, and a caller appending to
// one span's attributes does not write into the next span's.
func TestTracerSpansShareOneAttrArray(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 3*spanBlock; i++ {
		tr.Closed(NoSpan, KindChunk, "c", 0, 1, Attr{"seq", int64(i)})
	}
	if allocs := testing.AllocsPerRun(10, func() { tr.Spans() }); allocs != 2 {
		t.Errorf("Spans allocates %v times, want 2", allocs)
	}
	spans := tr.Spans()
	_ = append(spans[0].Attrs, Attr{"x", -1})
	if spans[1].Attrs[0] != (Attr{"seq", 1}) {
		t.Errorf("appending to span 1's attributes overwrote span 2's: %+v", spans[1].Attrs)
	}
}

// TestTracerAttrSlabs: a span that gains attributes between other
// spans' keeps them in order, across slab boundaries.
func TestTracerAttrSlabs(t *testing.T) {
	tr := NewTracer()
	a := tr.Begin(NoSpan, KindConnection, "a", 0)
	for i := 0; i < attrSlab+10; i++ {
		id := tr.Begin(a, KindChunk, "c", 0)
		tr.Attr(id, "seq", int64(i))
		tr.Attr(a, "n", int64(i))
	}
	spans := tr.Spans()
	if n := len(spans[0].Attrs); n != attrSlab+10 {
		t.Fatalf("span a has %d attributes, want %d", n, attrSlab+10)
	}
	for i, at := range spans[0].Attrs {
		if at != (Attr{"n", int64(i)}) {
			t.Fatalf("span a attribute %d = %+v", i, at)
		}
	}
	for i, sp := range spans[1:] {
		if len(sp.Attrs) != 1 || sp.Attrs[0] != (Attr{"seq", int64(i)}) {
			t.Fatalf("span %d attributes = %+v", sp.ID, sp.Attrs)
		}
	}
}

// BenchmarkTracerBegin opens spans into one tracer, as the collector does
// all through a traced run.  A guard, not a claim.
func BenchmarkTracerBegin(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Begin(NoSpan, KindChunk, "chunk", avtime.WorldTime(i))
	}
}
