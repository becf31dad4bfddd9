package activity

import (
	"fmt"
	"sync"
	"sync/atomic"

	"avdb/internal/avtime"
	"avdb/internal/media"
	"avdb/internal/sched"
)

// Base supplies the MediaActivity behavior shared by every concrete
// activity class: port and event bookkeeping, bindings, cueing, the
// start/stop state machine and event dispatch.  Concrete activities embed
// *Base and implement Tick.
type Base struct {
	name  string
	class string
	loc   Location

	latency atomic.Pointer[sched.Latency] // read on every tick, so not under mu

	mu        sync.Mutex
	ports     map[string]*Port
	portOrder []string
	events    map[Event]bool
	handlers  map[Event][]Handler
	bindings  map[string]media.Value
	state     State
	cue       avtime.WorldTime
}

// NewBase returns an activity base.  The name identifies the instance
// within a graph; the class is the activity class name of Table 1.
func NewBase(name, class string, loc Location) *Base {
	if name == "" || class == "" {
		panic("activity: activity needs a name and a class")
	}
	b := &Base{
		name: name, class: class, loc: loc,
		ports:    make(map[string]*Port),
		events:   make(map[Event]bool),
		handlers: make(map[Event][]Handler),
		bindings: make(map[string]media.Value),
	}
	b.DeclareEvents(EventStarted, EventStopped)
	return b
}

// AddPort declares a port at construction time.  Duplicate names panic:
// the port set is part of the activity class definition, not runtime
// state.
func (b *Base) AddPort(name string, dir Dir, typ *media.Type) *Port {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.ports[name]; dup {
		panic(fmt.Sprintf("activity: %s: duplicate port %q", b.name, name))
	}
	p := &Port{name: name, dir: dir, typ: typ, owner: b.name}
	b.ports[name] = p
	b.portOrder = append(b.portOrder, name)
	return p
}

// DeclareEvents adds events to the activity's event set.
func (b *Base) DeclareEvents(evs ...Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range evs {
		b.events[e] = true
	}
}

// SetLatency attaches a processing-latency model; nil means instantaneous.
func (b *Base) SetLatency(l *sched.Latency) { b.latency.Store(l) }

// SampleLatency draws one processing delay (zero without a model).
func (b *Base) SampleLatency() avtime.WorldTime {
	l := b.latency.Load()
	if l == nil {
		return 0
	}
	return l.Sample()
}

// Name implements Activity.
func (b *Base) Name() string { return b.name }

// Class implements Activity.
func (b *Base) Class() string { return b.class }

// Location implements Activity.
func (b *Base) Location() Location { return b.loc }

// Kind implements Activity, classifying by port directions.
func (b *Base) Kind() ActivityKind {
	b.mu.Lock()
	defer b.mu.Unlock()
	var in, out bool
	for _, p := range b.ports {
		switch p.dir {
		case In:
			in = true
		case Out:
			out = true
		}
	}
	switch {
	case in && out:
		return KindTransformer
	case in:
		return KindSink
	default:
		return KindSource
	}
}

// Ports implements Activity.
func (b *Base) Ports() []*Port {
	b.mu.Lock()
	defer b.mu.Unlock()
	ps := make([]*Port, len(b.portOrder))
	for i, n := range b.portOrder {
		ps[i] = b.ports[n]
	}
	return ps
}

// Port implements Activity.
func (b *Base) Port(name string) (*Port, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.ports[name]
	return p, ok
}

// Bind implements Activity.
func (b *Base) Bind(v media.Value, port string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.ports[port]
	if !ok {
		return fmt.Errorf("activity: %s has no port %q", b.name, port)
	}
	if v.Type() != p.typ {
		return fmt.Errorf("activity: cannot bind %s value to port %v", v.Type(), p)
	}
	b.bindings[port] = v
	return nil
}

// Binding implements Activity.
func (b *Base) Binding(port string) (media.Value, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.bindings[port]
	return v, ok
}

// Cue implements Activity.  Cueing a running activity is an error; the
// client stops it first.
func (b *Base) Cue(w avtime.WorldTime) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == StateStarted {
		return fmt.Errorf("activity: %s: cue while started", b.name)
	}
	if w < 0 {
		return fmt.Errorf("activity: %s: cue to negative time %v", b.name, w)
	}
	b.cue = w
	return nil
}

// CuePoint reports the current cue position.
func (b *Base) CuePoint() avtime.WorldTime {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cue
}

// Start implements Activity.
func (b *Base) Start() error {
	b.mu.Lock()
	if b.state == StateStarted {
		b.mu.Unlock()
		return fmt.Errorf("activity: %s already started", b.name)
	}
	b.state = StateStarted
	b.mu.Unlock()
	b.Emit(EventInfo{Event: EventStarted, Activity: b.name})
	return nil
}

// Stop implements Activity.  Stopping an activity that is not running is
// a no-op: the client may race a stop against natural completion.
func (b *Base) Stop() error {
	b.mu.Lock()
	if b.state != StateStarted {
		b.mu.Unlock()
		return nil
	}
	b.state = StateStopped
	b.mu.Unlock()
	b.Emit(EventInfo{Event: EventStopped, Activity: b.name})
	return nil
}

// Catch implements Activity.
func (b *Base) Catch(e Event, h Handler) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.events[e] {
		return fmt.Errorf("activity: %s does not generate event %q", b.name, e)
	}
	if h == nil {
		return fmt.Errorf("activity: nil handler for event %q", e)
	}
	b.handlers[e] = append(b.handlers[e], h)
	return nil
}

// Emit delivers an event to every caught handler.
func (b *Base) Emit(info EventInfo) {
	b.mu.Lock()
	hs := append([]Handler(nil), b.handlers[info.Event]...)
	b.mu.Unlock()
	if info.Activity == "" {
		info.Activity = b.name
	}
	for _, h := range hs {
		h(info)
	}
}

// State implements Activity.
func (b *Base) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// MarkDone transitions a started activity to Done (sources call this when
// their bound value is exhausted).
func (b *Base) MarkDone() {
	b.mu.Lock()
	if b.state == StateStarted {
		b.state = StateDone
	}
	b.mu.Unlock()
}

// TickContext carries one scheduling interval through an activity's Tick:
// the chunks that arrived on its In ports and the chunks it emits on its
// Out ports.  The context owns its chunks: SetIn and Emit copy the chunk
// they are given, and In and Out lend a pointer to the context's copy,
// valid until the context is next reset (see Chunk).
type TickContext struct {
	Now      avtime.WorldTime // scheduled tick time
	Seq      int              // tick number since graph start
	Interval avtime.Interval  // world-time span the tick covers

	// Round is the storage service round this tick's chunk requests
	// belong to.  A standalone Graph.Run numbers rounds by Seq; under the
	// multi-session engine every graph ticked in the same engine step
	// shares one round, so the per-disk SCAN-EDF batches span sessions.
	Round int64

	// One slot per port ever used, kept across resets: a retained context
	// reaches its steady state after one tick and never allocates again.
	in  []slot
	out []slot
}

// slot holds the chunk on one port of a tick context.
type slot struct {
	port string
	set  bool // a chunk is on the port this tick
	c    Chunk
}

// NewTickContext returns a context for one tick.  Graph runs and
// composites keep one per activity and reset it tick after tick; tests
// and harnesses ticking an activity by hand make their own.
func NewTickContext(now avtime.WorldTime, seq int, iv avtime.Interval) *TickContext {
	return &TickContext{Now: now, Seq: seq, Interval: iv, Round: int64(seq)}
}

// reset empties tc for another tick at the given time, sequence number
// and storage round.
func (tc *TickContext) reset(now avtime.WorldTime, seq int, iv avtime.Interval, round int64) {
	tc.Now, tc.Seq, tc.Interval, tc.Round = now, seq, iv, round
	tc.clear()
}

// clear empties every slot, dropping the payloads they referenced.
func (tc *TickContext) clear() {
	for i := range tc.in {
		tc.in[i] = slot{port: tc.in[i].port}
	}
	for i := range tc.out {
		tc.out[i] = slot{port: tc.out[i].port}
	}
}

// In returns the chunk delivered to the named In port this tick, or nil.
func (tc *TickContext) In(port string) *Chunk { return get(tc.in, port) }

// SetIn places a copy of c on an In port (the graph runner's side).
func (tc *TickContext) SetIn(port string, c *Chunk) { tc.in = put(tc.in, port, c) }

// Emit places a copy of c on an Out port.
func (tc *TickContext) Emit(port string, c *Chunk) { tc.out = put(tc.out, port, c) }

// Out returns the chunk emitted on the named Out port this tick, or nil.
func (tc *TickContext) Out(port string) *Chunk { return get(tc.out, port) }

func get(slots []slot, port string) *Chunk {
	for i := range slots {
		if slots[i].port == port {
			if slots[i].set {
				return &slots[i].c
			}
			return nil
		}
	}
	return nil
}

func put(slots []slot, port string, c *Chunk) []slot {
	v := *c
	for i := range slots {
		if slots[i].port == port {
			slots[i].set, slots[i].c = true, v
			return slots
		}
	}
	return append(slots, slot{port: port, set: true, c: v})
}
