// Package activity implements the paper's MediaActivity framework (§4.2):
// activities with typed ports and declared events, the
// Bind/Cue/Start/Stop/Catch behavior of the abstract MediaActivity class,
// flow composition — typed port connections forming activity graphs — and
// composite activities that encapsulate sub-graphs while keeping their
// component streams synchronized.
//
// Execution is discrete-event: a Graph runs tick by tick against a
// virtual clock, moving Chunks from sources through transformers to sinks
// within each tick and accounting world-time latency (activity processing
// plus network transfer plus jitter) on every chunk.  Hour-long
// presentations therefore execute in milliseconds, deterministically.
package activity

import (
	"fmt"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// Location is where an activity executes: within the database system or
// within the client application (§4.2 "activity location").
type Location int

// The two activity locations of Fig. 3.
const (
	AtDatabase Location = iota
	AtApplication
)

// String returns the location's name.
func (l Location) String() string {
	switch l {
	case AtDatabase:
		return "database"
	case AtApplication:
		return "application"
	}
	return fmt.Sprintf("Location(%d)", int(l))
}

// Dir is a port direction.
type Dir int

// Port directions: streams enter through In ports and leave through Out
// ports.
const (
	In Dir = iota
	Out
)

// String returns "in" or "out".
func (d Dir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// ActivityKind classifies an activity by its port directions, following
// the paper's taxonomy: sources have output ports only, sinks input ports
// only, transformers both.
type ActivityKind int

// The activity kinds of §3.1.
const (
	KindSource ActivityKind = iota
	KindSink
	KindTransformer
)

// String returns the kind's name.
func (k ActivityKind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindSink:
		return "sink"
	case KindTransformer:
		return "transformer"
	}
	return fmt.Sprintf("ActivityKind(%d)", int(k))
}

// Port is a stream endpoint on an activity.  A port has a direction and a
// media data type; an In port may be connected to an Out port "provided
// they are of the same data type" (§4.2).
type Port struct {
	name  string
	dir   Dir
	typ   *media.Type
	owner string // owning activity's name, set at AddPort
}

// Dir returns the port's direction.
func (p *Port) Dir() Dir { return p.dir }

// Type returns the port's media data type.
func (p *Port) Type() *media.Type { return p.typ }

// String formats the port as "activity.port(dir type)".
func (p *Port) String() string {
	return fmt.Sprintf("%s.%s(%s %s)", p.owner, p.name, p.dir, p.typ.Name)
}

// Event is a named activity event, e.g. EachFrame or LastFrame for a
// VideoSource.
type Event string

// Events every activity declares.
const (
	EventStarted Event = "STARTED"
	EventStopped Event = "STOPPED"
)

// Events declared by stream sources.
const (
	EventEachFrame Event = "EACH_FRAME"
	EventLastFrame Event = "LAST_FRAME"
)

// Stall and degradation events — the asynchronous surface of overload
// control.  Activities that take part declare the subset they emit;
// clients Catch them like any other event ("perhaps being informed when
// the transfer is complete", §3.3, extended to being informed when it
// runs late).
const (
	// EventStalled reports sustained deadline misses on a sink.
	EventStalled Event = "STALLED"
	// EventRecovered reports a stalled sink meeting deadlines again.
	EventRecovered Event = "RECOVERED"
	// EventDegraded reports a quality renegotiation: the stream now
	// carries a cheaper representation of the same value.
	EventDegraded Event = "DEGRADED"
	// EventRestored reports the reverse renegotiation: pressure cleared
	// and the stream carries its original representation again.
	EventRestored Event = "RESTORED"
)

// EventInfo accompanies an event delivery.
type EventInfo struct {
	Event    Event
	Activity string           // emitting activity's name
	At       avtime.WorldTime // world time of the occurrence
	Seq      int              // stream sequence number, when meaningful
}

// Handler receives events an application has Caught.  Handlers run
// synchronously at the emitting activity's tick; in the discrete-event
// model they are instantaneous.
type Handler func(EventInfo)

// State is an activity's lifecycle state.
type State int

// The activity lifecycle.  Stopping is client-initiated; Done means a
// source exhausted its bound value.
const (
	StateIdle State = iota
	StateStarted
	StateStopped
	StateDone
)

// String returns the state's name.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateStarted:
		return "started"
	case StateStopped:
		return "stopped"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Chunk is the unit of data on a stream: one media element (a video
// frame, an audio block, a text cue) with its scheduled presentation time
// and the accumulated actual delivery time.
//
// A Chunk is an envelope that travels by value; its payload is shared.
// A *Chunk handed to Tick — by TickContext.In, or read back with Out — is
// borrowed: it is valid only during that Tick, and an activity that needs
// the chunk later copies it.  The payload may be kept: elements are
// immutable once emitted and owned by the garbage collector.
type Chunk struct {
	Seq     int              // element sequence number in the stream
	At      avtime.WorldTime // scheduled presentation time
	Arrived avtime.WorldTime // actual time after accumulated latencies
	Track   string           // track label inside composites, else ""
	Payload media.Element

	// shift is the path delay a chunk has picked up since its parts, if
	// it carries any, were bundled: every latency added to Arrived is
	// added here too.  It travels on the envelope, so fan-out copies each
	// carry their own and the shared parts are never touched;
	// demultiplexing adds it to every part (Composite.Tick).  It means
	// nothing on a chunk without parts.
	shift avtime.WorldTime
}

// Size reports the payload size in bytes (zero for empty chunks).
func (c *Chunk) Size() int64 {
	if c.Payload == nil {
		return 0
	}
	return c.Payload.Size()
}

// Activity is the paper's MediaActivity interface: ports, events, and the
// Bind / Cue / Start / Stop / Catch behaviors.
type Activity interface {
	// Name returns the activity instance's unique name.
	Name() string
	// Location reports where the activity executes.
	Location() Location
	// Kind classifies the activity by its port directions.
	Kind() ActivityKind
	// Ports returns the activity's ports in declaration order.
	Ports() []*Port
	// Port looks a port up by name.
	Port(name string) (*Port, bool)
	// Bind associates a media value with a port (typically configuring a
	// source to produce the value).  The value's type must match the
	// port's.
	Bind(v media.Value, port string) error
	// Binding returns the value bound to a port, if any.
	Binding(port string) (media.Value, bool)
	// Cue positions the activity at the given world time of its bound
	// value, so that starting presents from there ("cueing a VideoSource
	// activity to world time 0 would position it at the first frame").
	Cue(w avtime.WorldTime) error
	// Start begins production/consumption.
	Start() error
	// Stop halts the activity.
	Stop() error
	// Catch registers a handler for one of the activity's events.
	Catch(e Event, h Handler) error
	// State reports the lifecycle state.
	State() State
	// Tick advances the activity across one scheduling interval; the
	// graph runner is the only caller.
	Tick(tc *TickContext) error
}
