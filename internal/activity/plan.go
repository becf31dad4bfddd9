package activity

import (
	"avdb/internal/avtime"
)

// plan.go holds what a graph run and a composite tick share: a set of
// connected activities worked out once into the form a tick consumes —
// topological order, each node with a tick context that is reset and
// reused every tick and with its incoming connections resolved to the
// producing node, so a consumer reads the producer's retained outputs
// directly and a tick allocates no chunk, no slice and no context of its
// own.

// planNode is one activity of a plan.
type planNode struct {
	act    Activity
	source bool // act.Kind() == KindSource
	tc     TickContext
	feeds  []planFeed // incoming connections, in connection order
	depth  int        // dependency level: 0 without feeds, else 1 + the deepest producer's

	// Results of the last exec, read by the serial phase that follows.
	lat avtime.WorldTime
	err error
}

// planFeed is one incoming connection of a node.
type planFeed struct {
	conn *Connection
	from *planNode
	k    int // the connection's index in the list the plan was built from
}

// exec runs a node's tick: the Tick itself and the node's latency draw
// (each activity owns its latency model and RNG).
func (n *planNode) exec() {
	n.lat = 0
	if n.err = n.act.Tick(&n.tc); n.err == nil {
		n.lat = sampleLatency(n.act)
	}
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
// is deterministic, and because a FIFO dequeues a whole frontier before
// any of its successors, depth never decreases along it: the nodes of
// one dependency level are contiguous.  GraphRun.Tick relies on both.
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
	for i := range nodes {
		for _, f := range nodes[i].feeds {
			nodes[i].depth = max(nodes[i].depth, f.from.depth+1)
		}
	}
	return nodes, true
}
