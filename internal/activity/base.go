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
//
// What a tick reads of a base is atomic, so neither a tick nor the step
// around it (planNode.step) takes the base's lock: the state, the cue
// point, the latency model, the handler lists and each port's binding
// (Port.Bound).  mu serializes the writers that must check before they
// act — Start and Cue against each other, Catch against Catch, Bind
// against the port set — and guards the port and event sets.
type Base struct {
	name  string
	class string
	loc   Location

	// state holds a State.  Start and Cue change or test it under mu;
	// MarkDone and Stop leave Started by compare-and-swap, which cannot
	// interleave with Start's check because Start only leaves a state
	// other than Started.
	state    atomic.Int32
	cue      atomic.Int64                        // a WorldTime; stored under mu by Cue
	latency  atomic.Pointer[sched.Latency]       // nil means instantaneous
	handlers atomic.Pointer[map[Event][]Handler] // copy-on-write: Catch replaces map and list, Emit never copies

	mu        sync.Mutex
	ports     map[string]*Port
	portOrder []string
	events    map[Event]bool
}

// NewBase returns an activity base.  The name identifies the instance
// within a graph; the class is the activity class name of Table 1.
func NewBase(name, class string, loc Location) *Base {
	if name == "" || class == "" {
		panic("activity: activity needs a name and a class")
	}
	b := &Base{
		name: name, class: class, loc: loc,
		ports:  make(map[string]*Port),
		events: make(map[Event]bool),
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
	p.bound.Store(&v)
	return nil
}

// Binding implements Activity.  An activity reading its own binding on
// every tick holds the *Port AddPort returned and calls Port.Bound
// instead, which skips the port lookup and its lock.
func (b *Base) Binding(port string) (media.Value, bool) {
	b.mu.Lock()
	p, ok := b.ports[port]
	b.mu.Unlock()
	if !ok {
		return nil, false
	}
	return p.Bound()
}

// Cue implements Activity.  Cueing a running activity is an error; the
// client stops it first.
func (b *Base) Cue(w avtime.WorldTime) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.State() == StateStarted {
		return fmt.Errorf("activity: %s: cue while started", b.name)
	}
	if w < 0 {
		return fmt.Errorf("activity: %s: cue to negative time %v", b.name, w)
	}
	b.cue.Store(int64(w))
	return nil
}

// CuePoint reports the current cue position.
func (b *Base) CuePoint() avtime.WorldTime { return avtime.WorldTime(b.cue.Load()) }

// Start implements Activity.
func (b *Base) Start() error {
	b.mu.Lock()
	if b.State() == StateStarted {
		b.mu.Unlock()
		return fmt.Errorf("activity: %s already started", b.name)
	}
	b.state.Store(int32(StateStarted))
	b.mu.Unlock()
	b.Emit(EventInfo{Event: EventStarted, Activity: b.name})
	return nil
}

// Stop implements Activity.  Stopping an activity that is not running is
// a no-op: the client may race a stop against natural completion.
func (b *Base) Stop() error {
	if b.state.CompareAndSwap(int32(StateStarted), int32(StateStopped)) {
		b.Emit(EventInfo{Event: EventStopped, Activity: b.name})
	}
	return nil
}

// Catch implements Activity.  It never changes a handler list in place:
// it publishes a new map with a new list for e, so an Emit in flight
// keeps iterating the list it loaded.
func (b *Base) Catch(e Event, h Handler) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.events[e] {
		return fmt.Errorf("activity: %s does not generate event %q", b.name, e)
	}
	if h == nil {
		return fmt.Errorf("activity: nil handler for event %q", e)
	}
	next := make(map[Event][]Handler)
	if cur := b.handlers.Load(); cur != nil {
		for ev, hs := range *cur {
			next[ev] = hs
		}
	}
	hs := next[e]
	next[e] = append(hs[:len(hs):len(hs)], h)
	b.handlers.Store(&next)
	return nil
}

// Emit delivers an event to every caught handler.
func (b *Base) Emit(info EventInfo) {
	hm := b.handlers.Load()
	if hm == nil {
		return
	}
	if info.Activity == "" {
		info.Activity = b.name
	}
	for _, h := range (*hm)[info.Event] {
		h(info)
	}
}

// State implements Activity.
func (b *Base) State() State { return State(b.state.Load()) }

// MarkDone transitions a started activity to Done (sources call this when
// their bound value is exhausted).
func (b *Base) MarkDone() {
	b.state.CompareAndSwap(int32(StateStarted), int32(StateDone))
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
