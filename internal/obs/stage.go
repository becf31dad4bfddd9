package obs

import (
	"avdb/internal/avtime"
)

// Stage is a Sink that records every operation instead of applying it,
// so a batch of sessions ticked in parallel can each write telemetry
// race-free into a private buffer and the engine can replay the buffers
// into the real sink *in admission order* at the commit barrier.  That
// replay order is exactly the order a serial engine would have emitted,
// which is what keeps snapshot span ids — assigned by the tracer in
// arrival order — byte-identical for any worker count.
//
// BeginSpan cannot know the real id the tracer will assign at replay,
// so it hands back a provisional negative id (NoSpan is 0 and real ids
// are positive, so the spaces never collide).  Later operations naming
// a provisional id are rewritten to the real id during Flush; real and
// NoSpan ids pass through untouched.  This works because within one
// stage a span is always begun before it is ended or attributed — the
// same program order the real sink relies on.
//
// All buffers are reused across Flush cycles, so a warmed Stage stays
// allocation-free in steady state.  A Stage is not goroutine-safe; the
// engine gives each session its own.
type Stage struct {
	ops   []stageOp
	provs int      // BeginSpans staged this cycle (provisional id source)
	real  []SpanID // provisional index -> real id, filled during Flush
}

type stageKind uint8

const (
	stageBegin stageKind = iota
	stageEnd
	stageAttr
	stageCount
	stageGauge
	stageObserve
)

type stageOp struct {
	op   stageKind
	span SpanID // Begin: parent; End/Attr: target
	kind string // Begin: span kind; Attr: attribute key
	name string // Begin/Count/Gauge/Observe: name
	val  int64  // Begin/End: at; Attr/Count/Gauge/Observe: value
}

// BeginSpan implements Sink, returning a provisional negative id.
func (g *Stage) BeginSpan(parent SpanID, kind, name string, at avtime.WorldTime) SpanID {
	g.provs++
	prov := SpanID(-g.provs)
	g.ops = append(g.ops, stageOp{op: stageBegin, span: parent, kind: kind, name: name, val: int64(at)})
	return prov
}

// EndSpan implements Sink.
func (g *Stage) EndSpan(id SpanID, at avtime.WorldTime) {
	g.ops = append(g.ops, stageOp{op: stageEnd, span: id, val: int64(at)})
}

// SpanAttr implements Sink.
func (g *Stage) SpanAttr(id SpanID, key string, value int64) {
	g.ops = append(g.ops, stageOp{op: stageAttr, span: id, kind: key, val: value})
}

// Count implements Sink.
func (g *Stage) Count(name string, delta int64) {
	g.ops = append(g.ops, stageOp{op: stageCount, name: name, val: delta})
}

// SetGauge implements Sink.
func (g *Stage) SetGauge(name string, value int64) {
	g.ops = append(g.ops, stageOp{op: stageGauge, name: name, val: value})
}

// Observe implements Sink.
func (g *Stage) Observe(name string, value int64) {
	g.ops = append(g.ops, stageOp{op: stageObserve, name: name, val: value})
}

// resolve maps a staged id to the real one: provisional negatives index
// the replay table, NoSpan and real positives pass through.
func (g *Stage) resolve(id SpanID) SpanID {
	if id >= 0 {
		return id
	}
	return g.real[-id-1]
}

// Flush replays every staged operation into sink in staging order,
// translating provisional span ids to the ids the sink assigns, then
// resets the stage for the next cycle.  A nil sink just discards the
// buffer.
func (g *Stage) Flush(sink Sink) {
	if sink == nil {
		g.ops = g.ops[:0]
		g.real = g.real[:0]
		g.provs = 0
		return
	}
	g.real = g.real[:0]
	for i := range g.ops {
		op := &g.ops[i]
		switch op.op {
		case stageBegin:
			id := sink.BeginSpan(g.resolve(op.span), op.kind, op.name, avtime.WorldTime(op.val))
			g.real = append(g.real, id)
		case stageEnd:
			sink.EndSpan(g.resolve(op.span), avtime.WorldTime(op.val))
		case stageAttr:
			sink.SpanAttr(g.resolve(op.span), op.kind, op.val)
		case stageCount:
			sink.Count(op.name, op.val)
		case stageGauge:
			sink.SetGauge(op.name, op.val)
		case stageObserve:
			sink.Observe(op.name, op.val)
		}
	}
	g.ops = g.ops[:0]
	g.real = g.real[:0]
	g.provs = 0
}
