package activity

import (
	"errors"
	"fmt"
	"sync"

	"avdb/internal/avtime"
	"avdb/internal/netsim"
	"avdb/internal/obs"
	"avdb/internal/sched"
)

// Connection links an Out port to an In port — the paper's flow-
// composition rule 1: "an 'in' port can be connected to an 'out' port
// provided they are of the same data type."  A connection may ride a
// reserved network connection, in which case every chunk crossing it pays
// (and accounts) the transfer time.
type Connection struct {
	from     Activity
	fromPort *Port
	to       Activity
	toPort   *Port
	net      *netsim.Conn
	label    string // precomputed String(), reused for span names

	mu     sync.Mutex
	bytes  int64
	chunks int64
}

// Network returns the reserved network connection, if any.
func (c *Connection) Network() *netsim.Conn { return c.net }

// Chunks reports the number of chunks moved.
func (c *Connection) Chunks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chunks
}

// String formats the connection.
func (c *Connection) String() string { return c.label }

// deliver moves a chunk across the connection, returning the copy that
// arrives downstream with transfer latency applied.  A failed transfer
// fails the run.
func (c *Connection) deliver(in *Chunk) (Chunk, error) {
	out := *in
	if c.net != nil {
		dt, err := c.net.TransferChunk(in.Size())
		if err != nil {
			return Chunk{}, fmt.Errorf("activity: %v: %w", c, err)
		}
		out.Arrived += dt
		out.shift += dt
	}
	c.mu.Lock()
	c.bytes += in.Size()
	c.chunks++
	c.mu.Unlock()
	return out, nil
}

// Graph is an activity graph: the unit of flow composition.  Nodes are
// activities; edges are typed port connections.  A graph runs tick by
// tick against a virtual clock.
type Graph struct {
	name string

	mu    sync.Mutex
	nodes map[string]Activity
	order []string
	conns []*Connection
}

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph {
	return &Graph{name: name, nodes: make(map[string]Activity)}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// Add inserts an activity; duplicate names are an error.
func (g *Graph) Add(a Activity) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.nodes[a.Name()]; dup {
		return fmt.Errorf("activity: graph %q already has node %q", g.name, a.Name())
	}
	g.nodes[a.Name()] = a
	g.order = append(g.order, a.Name())
	return nil
}

// Nodes returns the activities in insertion order.
func (g *Graph) Nodes() []Activity {
	g.mu.Lock()
	defer g.mu.Unlock()
	ns := make([]Activity, len(g.order))
	for i, n := range g.order {
		ns[i] = g.nodes[n]
	}
	return ns
}

// Connections returns the graph's connections.
func (g *Graph) Connections() []*Connection {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Connection(nil), g.conns...)
}

// Connect wires from's Out port to to's In port.
func (g *Graph) Connect(from Activity, outPort string, to Activity, inPort string) (*Connection, error) {
	return g.ConnectVia(from, outPort, to, inPort, nil)
}

// ConnectVia wires a connection that rides a reserved network connection.
func (g *Graph) ConnectVia(from Activity, outPort string, to Activity, inPort string, nc *netsim.Conn) (*Connection, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[from.Name()]; !ok {
		return nil, fmt.Errorf("activity: graph %q does not contain %q", g.name, from.Name())
	}
	if _, ok := g.nodes[to.Name()]; !ok {
		return nil, fmt.Errorf("activity: graph %q does not contain %q", g.name, to.Name())
	}
	fp, ok := from.Port(outPort)
	if !ok {
		return nil, fmt.Errorf("activity: %s has no port %q", from.Name(), outPort)
	}
	tp, ok := to.Port(inPort)
	if !ok {
		return nil, fmt.Errorf("activity: %s has no port %q", to.Name(), inPort)
	}
	if fp.Dir() != Out {
		return nil, fmt.Errorf("activity: %v is not an out port", fp)
	}
	if tp.Dir() != In {
		return nil, fmt.Errorf("activity: %v is not an in port", tp)
	}
	if fp.Type() != tp.Type() {
		return nil, fmt.Errorf("activity: port types differ: %v vs %v", fp, tp)
	}
	for _, c := range g.conns {
		if c.toPort == tp {
			return nil, fmt.Errorf("activity: %v already connected", tp)
		}
	}
	conn := &Connection{
		from: from, fromPort: fp, to: to, toPort: tp, net: nc,
		label: fmt.Sprintf("%s -> %s", fp, tp),
	}
	g.conns = append(g.conns, conn)
	return conn, nil
}

// Start starts every node in the graph.
func (g *Graph) Start() error {
	for _, a := range g.Nodes() {
		if err := a.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Stop stops every node in the graph.  Per-node Stop errors are
// collected and joined rather than discarded, so a failed teardown is
// visible to the caller; every node is stopped regardless.
func (g *Graph) Stop() error {
	var errs []error
	for _, a := range g.Nodes() {
		if err := a.Stop(); err != nil {
			errs = append(errs, fmt.Errorf("activity: stopping %s: %w", a.Name(), err))
		}
	}
	return errors.Join(errs...)
}

// RunConfig parameterizes one graph run.
type RunConfig struct {
	Clock    *sched.VirtualClock // required
	Rate     avtime.Rate         // tick rate; defaults to 30Hz
	MaxTicks int                 // safety bound; defaults to 10 million

	// Deprecated: Workers is ignored — a run ticks on the calling
	// goroutine.  It stays only because the frozen bench/ module sets it.
	Workers int

	// Obs, when non-nil, receives a playback span covering the run with
	// nested activity, connection and chunk spans, plus the stream.* and
	// sched.* metrics.  ObsParent nests the playback span under an
	// enclosing span (e.g. a session).
	Obs       obs.Sink
	ObsParent obs.SpanID
}

// RunStats summarizes a completed run.
type RunStats struct {
	Ticks      int              // scheduling intervals executed
	Elapsed    avtime.WorldTime // world time the run spanned
	Chunks     int64            // chunks delivered over connections
	BytesMoved int64            // payload bytes delivered over connections

	// LastArrival is the latest chunk arrival the run observed.  The
	// final clock reading is guaranteed to cover it: a tail chunk whose
	// accumulated latency lands past the last tick is drained into
	// Elapsed rather than silently cut off.
	LastArrival avtime.WorldTime

	// StopErr carries the joined per-node Stop errors from the run's
	// teardown, so a failed teardown isn't invisible to callers that
	// only look at stats.
	StopErr error
}

// Run executes the graph until every source has exhausted its stream (or
// every node has stopped), advancing the clock one tick at a time.  Nodes
// must have been started; Run returns immediately if nothing is running.
//
// Run is the single-graph driver over the resumable state machine in
// run.go: Begin, then Tick/Commit until done, then Finish.  The
// multi-session engine (internal/core) drives the same machine but
// interleaves ticks from several graphs before each clock commit.
func (g *Graph) Run(cfg RunConfig) (*RunStats, error) {
	r, err := g.Begin(cfg)
	if err != nil {
		return nil, err
	}
	for {
		done, err := r.Tick()
		if err != nil {
			break
		}
		r.Commit()
		if done {
			break
		}
	}
	return r.Finish()
}

// latencySampler is satisfied by *Base and therefore by every concrete
// activity.
type latencySampler interface {
	SampleLatency() avtime.WorldTime
}

func sampleLatency(a Activity) avtime.WorldTime {
	if ls, ok := a.(latencySampler); ok {
		return ls.SampleLatency()
	}
	return 0
}

// MaxArrival reports the latest arrival time among chunks, for
// transformers that merge inputs.
func MaxArrival(chunks ...*Chunk) avtime.WorldTime {
	var worst avtime.WorldTime
	for _, c := range chunks {
		if c != nil && c.Arrived > worst {
			worst = c.Arrived
		}
	}
	return worst
}
