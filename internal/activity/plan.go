package activity

import (
	"fmt"

	"avdb/internal/avtime"
)

// plan.go holds what a graph run and a composite tick share: a set of
// connected activities worked out once into the form a tick consumes —
// topological order, each node with a tick context that is reset and
// reused every tick and with its incoming connections resolved to the
// producing node, so a consumer reads the producer's retained outputs
// directly and a tick allocates no chunk, no slice and no context of its
// own — and the one step that runs a node within a tick.

// planNode is one activity of a plan.
type planNode struct {
	act    Activity
	source bool // act.Kind() == KindSource
	tc     TickContext
	feeds  []planFeed // incoming connections, in connection order
}

// planFeed is one incoming connection of a node.
type planFeed struct {
	conn *Connection
	from *planNode
	k    int // the connection's index in the list the plan was built from
}

// step runs the node in the tick its context was reset to, at now.  A
// node that is not started is skipped: it receives nothing and, its
// context being reset, publishes nothing.  Otherwise step delivers each
// feed's chunk across its connection; ticks the activity; and stamps
// each output, leaving it in the context for the nodes downstream:
// raised to at least now, delayed by the activity's latency draw, and
// refused on a port the activity does not declare.  When run is non-nil, every delivery is also
// accounted to the run (GraphRun.delivered).  step reports whether the
// node ran and the latest arrival it saw.
//
// Both walks call step on their nodes in plan order, so everything
// order-sensitive — chunk span ids, transfer ordinals, latency draws,
// stats — happens in that one order, which is what the goldens pin.
func (n *planNode) step(now avtime.WorldTime, run *GraphRun) (ran bool, last avtime.WorldTime, err error) {
	if n.act.State() != StateStarted {
		return false, 0, nil
	}
	for fi := range n.feeds {
		f := &n.feeds[fi]
		src := f.out()
		if src == nil {
			continue
		}
		in, err := f.conn.deliver(src)
		if err != nil {
			return true, last, err
		}
		if run != nil {
			run.delivered(f, src, &in)
		}
		n.tc.SetIn(f.conn.toPort.name, &in)
		last = max(last, in.Arrived)
	}
	if err := n.act.Tick(&n.tc); err != nil {
		return true, last, fmt.Errorf("activity: %s at tick %d: %w", n.act.Name(), n.tc.Seq, err)
	}
	lat := sampleLatency(n.act)
	for i := range n.tc.out {
		s := &n.tc.out[i]
		if !s.set {
			continue
		}
		if _, ok := n.act.Port(s.port); !ok {
			return true, last, fmt.Errorf("activity: %s emitted on unknown port %q", n.act.Name(), s.port)
		}
		c := &s.c
		c.Arrived = max(c.Arrived, now) + lat
		c.shift += lat
		last = max(last, c.Arrived)
	}
	return true, last, nil
}

// sourcesDone reports whether no source node of a plan remains started.
func sourcesDone(nodes []planNode) bool {
	for i := range nodes {
		if n := &nodes[i]; n.source && n.act.State() == StateStarted {
			return false
		}
	}
	return true
}

// clear empties the node's context and, for a composite, the contexts and
// envelopes of its own plan, so nothing the last tick carried stays
// reachable from a finished run.
func (n *planNode) clear() {
	n.tc.clear()
	if c, ok := n.act.(interface{ clearPlan() }); ok {
		c.clearPlan()
	}
}

// out returns what the feed's producer emitted on the feed's port in the
// tick under way, or nil.  A producer that is not ticking has had its
// context cleared, so nothing stale is ever read.
func (f *planFeed) out() *Chunk { return f.from.tc.Out(f.conn.fromPort.name) }

// planNodes orders acts topologically along conns and resolves the
// result into plan nodes; ok is false when the connections form a cycle.
//
// The order is Kahn's with a FIFO frontier seeded in acts' order, so it
// is deterministic, and every producer comes before its consumers.
func planNodes(acts []Activity, conns []*Connection) (nodes []planNode, ok bool) {
	index := make(map[string]int, len(acts))
	for i, a := range acts {
		index[a.Name()] = i
	}
	// One allocation for every integer list the sort needs.
	ints := make([]int, 5*len(acts)+3*len(conns))
	take := func(n int) []int {
		part := ints[:n:n]
		ints = ints[n:]
		return part
	}
	// Per activity, its outgoing connections as a list threaded through
	// next, in connection order.
	from, to, next := take(len(conns)), take(len(conns)), take(len(conns))
	head := take(len(acts))
	waits := take(len(acts))  // connections in, not yet satisfied
	nfeeds := take(len(acts)) // connections in
	pos := take(len(acts))    // activity index -> position in nodes
	for i := range head {
		head[i] = -1
	}
	for k := len(conns) - 1; k >= 0; k-- {
		from[k], to[k] = index[conns[k].from.Name()], index[conns[k].to.Name()]
		nfeeds[to[k]]++
		next[k], head[from[k]] = head[from[k]], k
	}
	copy(waits, nfeeds)

	nodes = make([]planNode, 0, len(acts))
	feeds := make([]planFeed, len(conns))
	queue := take(len(acts))[:0]
	for i, w := range waits {
		if w == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		pos[i] = len(nodes)
		// The node's feeds are carved out of the shared array empty and
		// filled below, within their capacity.
		nodes = append(nodes, planNode{act: acts[i], source: acts[i].Kind() == KindSource, feeds: feeds[:0:nfeeds[i]]})
		feeds = feeds[nfeeds[i]:]
		for k := head[i]; k >= 0; k = next[k] {
			if waits[to[k]]--; waits[to[k]] == 0 {
				queue = append(queue, to[k])
			}
		}
	}
	if len(nodes) != len(acts) {
		return nil, false
	}
	for k, c := range conns {
		n := &nodes[pos[to[k]]]
		n.feeds = append(n.feeds, planFeed{conn: c, from: &nodes[pos[from[k]]], k: k})
	}
	return nodes, true
}
