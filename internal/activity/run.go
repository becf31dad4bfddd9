package activity

import (
	"fmt"

	"avdb/internal/avtime"
	"avdb/internal/obs"
	"avdb/internal/sched"
)

// GraphRun is one graph execution, unrolled into a resumable per-tick
// state machine so a scheduler can interleave several runs on one shared
// clock.  The protocol is:
//
//	r, err := g.Begin(cfg)        // validate, plan, open spans
//	for {
//	    done, err := r.Tick()     // one pass over every level
//	    if err != nil { break }
//	    r.Commit()                // advance the clock past the tick
//	    if done { break }
//	}
//	stats, err := r.Finish()      // drain, close spans, stop nodes
//
// Graph.Run drives exactly this loop, so a run stepped externally (by
// core.Engine) is byte-identical — same RunStats, same obs output — to a
// direct Run when nothing else shares the clock.  An external driver may
// replace Commit with its own clock advance covering several runs; Tick
// itself never moves the clock.
//
// GraphRun is not safe for concurrent use: Tick, Commit, SetRound and
// Finish must be called from one goroutine at a time.
type GraphRun struct {
	g        *Graph
	clock    *sched.VirtualClock
	rate     avtime.Rate
	maxTicks int

	// The run plan, built once by Begin: the nodes in topological order
	// — dependency level by level, each level a contiguous stretch — with
	// their tick contexts and resolved feeds (plan.go).
	nodes  []planNode
	conns  []*Connection
	staged []*planNode      // the nodes of the level being ticked that are running
	latest avtime.WorldTime // latest chunk arrival so far; Finish drains the clock to it

	startAt avtime.WorldTime
	lastNow avtime.WorldTime // scheduled time of the last executed tick

	sink      obs.Sink
	pbSpan    obs.SpanID
	actSpans  []obs.SpanID // by node, in plan order
	connSpans []obs.SpanID // by connection, in r.conns order

	stats    *RunStats
	tick     int   // ticks executed so far
	round    int64 // round tag for the next tick; <0 follows the tick index
	runErr   error
	done     bool
	finished bool
}

// Begin validates the configuration, freezes the graph's topology into
// the run plan, opens the playback/activity/connection spans and
// returns a run ready for its first Tick.  The graph's nodes must already
// be started.  On error nothing is torn down (matching Run's historical
// behavior); the caller still owns the started graph.
func (g *Graph) Begin(cfg RunConfig) (*GraphRun, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("activity: RunConfig needs a clock")
	}
	rate := cfg.Rate
	if rate.IsZero() {
		rate = avtime.RateVideo30
	}
	maxTicks := cfg.MaxTicks
	if maxTicks <= 0 {
		maxTicks = 10_000_000
	}
	conns := g.Connections()
	nodes, ok := planNodes(g.Nodes(), conns)
	if !ok {
		return nil, fmt.Errorf("activity: graph %q contains a cycle", g.name)
	}
	levels, width := levelShape(nodes)
	r := &GraphRun{
		g:        g,
		clock:    cfg.Clock,
		rate:     rate,
		maxTicks: maxTicks,
		nodes:    nodes,
		conns:    conns,
		staged:   make([]*planNode, 0, width),
		startAt:  cfg.Clock.Now(),
		sink:     cfg.Obs,
		stats:    &RunStats{},
		round:    -1,
	}
	// Observability: one playback span for the run, one activity span per
	// node and one connection span per edge, all closed by Finish on any
	// path.  Every chunk delivery nests a chunk span under its connection.
	// All guards are nil checks so an uninstrumented run never touches the
	// sink.
	if r.sink != nil {
		r.pbSpan = r.sink.BeginSpan(cfg.ObsParent, obs.KindPlayback, g.name, r.startAt)
		r.actSpans = make([]obs.SpanID, len(nodes))
		for i := range nodes {
			r.actSpans[i] = r.sink.BeginSpan(r.pbSpan, obs.KindActivity, nodes[i].act.Name(), r.startAt)
		}
		r.connSpans = make([]obs.SpanID, len(conns))
		for k, c := range conns {
			r.connSpans[k] = r.sink.BeginSpan(r.pbSpan, obs.KindConnection, c.label, r.startAt)
		}
		// Executor shape: both gauges depend only on the graph.
		r.sink.SetGauge("exec.levels", int64(levels))
		r.sink.SetGauge("exec.width", int64(width))
	}
	return r, nil
}

// Graph returns the graph this run executes.
func (r *GraphRun) Graph() *Graph { return r.g }

// Rate returns the run's tick rate.
func (r *GraphRun) Rate() avtime.Rate { return r.rate }

// Ticks returns the number of ticks executed so far.
func (r *GraphRun) Ticks() int { return r.tick }

// Err returns the run's terminal error, if a Tick has failed.
func (r *GraphRun) Err() error { return r.runErr }

// SwapObs replaces the run's telemetry sink and returns the previous
// one.  The parallel engine uses it right after Begin (which emits the
// session's setup spans directly) to point the run at a private
// obs.Stage, so ticks on parallel workers buffer telemetry race-free
// for an admission-ordered replay at the commit barrier.  Callers must
// not swap while a Tick is in flight.
func (r *GraphRun) SwapObs(s obs.Sink) obs.Sink {
	old := r.sink
	r.sink = s
	return old
}

// Done reports whether the run has no more ticks to execute.
func (r *GraphRun) Done() bool { return r.done || r.runErr != nil || r.finished }

// NextDue returns the world time the run's next tick is scheduled for.
// A scheduler interleaving runs at different rates picks the run(s) with
// the smallest NextDue each step.
func (r *GraphRun) NextDue() avtime.WorldTime {
	return r.startAt + r.rate.DurationOf(avtime.ObjectTime(r.tick))
}

// CommitHorizon returns the clock value the run would commit after its
// last executed tick: the tick's scheduled time plus one tick interval.
// It is intentionally NOT NextDue — rational rates round per tick index,
// so lastNow+unit can differ from startAt+DurationOf(tick) by a
// microsecond, and byte-identity with the historical run loop requires
// the former.  Before the first tick it returns the start time (a no-op
// commit).
func (r *GraphRun) CommitHorizon() avtime.WorldTime {
	if r.tick == 0 {
		return r.startAt
	}
	return r.lastNow + r.rate.UnitDuration()
}

// SetRound tags the next Tick's chunk requests with an explicit storage
// service round.  The multi-session engine numbers rounds by engine step
// so concurrent graphs share per-disk SCAN-EDF batches; a standalone run
// leaves the default (the tick index).
func (r *GraphRun) SetRound(round int64) { r.round = round }

// Commit advances the shared clock past the last executed tick and
// refreshes Elapsed.  Single-run drivers call it after every successful
// Tick; a multi-run scheduler instead commits once per step, to the
// minimum CommitHorizon across its active runs.
func (r *GraphRun) Commit() {
	r.clock.AdvanceTo(r.CommitHorizon())
	r.stats.Elapsed = r.clock.Now() - r.startAt
}

// Tick executes one scheduling interval: every dependency level of the
// run plan in order, with the phase A/B/C discipline of executor.go
// (delivery, execution, publication), all on the calling goroutine.  It
// returns done=true when the run has nothing further to execute — no
// node running, every source exhausted, or the tick bound reached.  Tick
// never advances the clock; the caller commits (Commit, or a
// scheduler-wide advance) between ticks.  After an error the run is
// terminal and Finish skips the drain.
func (r *GraphRun) Tick() (bool, error) {
	if r.finished || r.runErr != nil || r.done {
		return true, r.runErr
	}
	if r.tick >= r.maxTicks {
		r.done = true
		return true, nil
	}
	// Keep Elapsed current even when an external scheduler owns the
	// commit: at this point the clock covers every previously committed
	// tick, which is exactly what the historical loop recorded.
	r.stats.Elapsed = r.clock.Now() - r.startAt

	tick := r.tick
	stats := r.stats
	sink := r.sink
	now := r.startAt + r.rate.DurationOf(avtime.ObjectTime(tick))
	iv := avtime.Interval{Start: now, Dur: r.rate.UnitDuration()}
	round := r.round
	if round < 0 {
		round = int64(tick)
	}

	anyRunning := false
	var last avtime.WorldTime
	for lo, hi := 0, 0; lo < len(r.nodes); lo = hi {
		hi = levelEnd(r.nodes, lo)
		r.staged = r.staged[:0]

		// Phase A — in topological order: move chunks across
		// connections, account faults, emit chunk spans, stage every
		// running node's tick inputs.  Producers sit in strictly
		// earlier levels, so their outputs are complete for this level.
		for i := lo; i < hi; i++ {
			node := &r.nodes[i]
			node.tc.reset(now, tick, iv, round)
			if node.act.State() != StateStarted {
				// Reset and not ticked: it publishes nothing this tick.
				continue
			}
			anyRunning = true
			for fi := range node.feeds {
				feed := &node.feeds[fi]
				src := feed.out()
				if src == nil {
					continue
				}
				conn := feed.conn
				oc := conn.deliver(src)
				if oc.err != nil {
					r.runErr = oc.err
					return true, r.runErr
				}
				if !oc.arrived {
					// Lost in flight or absorbed by a fail-soft connection:
					// nothing arrives this tick; the receiver sees the gap and
					// the client hears about it.
					if oc.dropped {
						stats.ChunksDropped++
					}
					if oc.failed {
						stats.TransferFailures++
					}
					emitFault(conn.to, EventInfo{Event: EventFault, Activity: conn.to.Name(), At: now, Seq: src.Seq})
					continue
				}
				if oc.corrupted {
					stats.ChunksCorrupted++
				}
				if sink != nil {
					cs := sink.BeginSpan(r.connSpans[feed.k], obs.KindChunk, conn.label, src.At)
					sink.SpanAttr(cs, "seq", int64(src.Seq))
					sink.EndSpan(cs, oc.chunk.Arrived)
					sink.Observe("stream.chunk_latency_us", int64(oc.chunk.Arrived-oc.chunk.At))
				}
				node.tc.SetIn(conn.toPort.name, &oc.chunk)
				stats.Chunks++
				stats.BytesMoved += oc.chunk.Size()
				if oc.chunk.Arrived > last {
					last = oc.chunk.Arrived
				}
			}
			r.staged = append(r.staged, node)
		}

		// Phase B — tick the level's staged nodes in plan order.
		for _, node := range r.staged {
			node.exec()
		}

		// Phase C — in topological order: surface the first
		// error, stamp activity latency onto outputs and leave them in
		// the node's context for the next levels to read.
		for _, node := range r.staged {
			if node.err != nil {
				r.runErr = fmt.Errorf("activity: %s at tick %d: %w", node.act.Name(), tick, node.err)
				return true, r.runErr
			}
			for i := range node.tc.out {
				s := &node.tc.out[i]
				if !s.set {
					continue
				}
				c := &s.c
				if c.Arrived < now {
					c.Arrived = now
				}
				c.Arrived += node.lat
				propagateExtra(c, node.lat)
				if _, ok := node.act.Port(s.port); !ok {
					r.runErr = fmt.Errorf("activity: %s emitted on unknown port %q", node.act.Name(), s.port)
					return true, r.runErr
				}
				if c.Arrived > last {
					last = c.Arrived
				}
			}
		}
	}

	stats.Ticks++
	if last > r.latest {
		r.latest = last
	}
	r.lastNow = now
	r.tick++
	if !anyRunning || r.sourcesFinished() || r.tick >= r.maxTicks {
		r.done = true
	}
	return r.done, nil
}

// sourcesFinished reports whether no source activity remains started.
func (r *GraphRun) sourcesFinished() bool {
	for i := range r.nodes {
		if n := &r.nodes[i]; n.source && n.act.State() == StateStarted {
			return false
		}
	}
	return true
}

// Finish completes the run: on success it drains the clock so the final
// reading covers the latest in-flight arrival, then on every path it
// closes the observability spans and stops the graph's nodes (teardown
// failures surface as StopErr).
// Finish is idempotent; later calls return the same result.
func (r *GraphRun) Finish() (*RunStats, error) {
	if r.finished {
		return r.stats, r.runErr
	}
	r.finished = true
	if r.runErr == nil {
		// Drain: chunks still in flight when the sources finish belong to
		// this run.  The final clock reading must cover the latest
		// arrival, so tail latency shows up in Elapsed instead of being
		// cut off.
		r.stats.LastArrival = r.latest
		r.clock.AdvanceTo(r.latest)
		r.stats.Elapsed = r.clock.Now() - r.startAt
	}
	r.closeObs()
	// A finished run leaves every activity quiescent so the graph can be
	// cued and started again; teardown failures surface through stats.
	if err := r.g.Stop(); err != nil {
		r.stats.StopErr = err
	}
	// Nor does it pin the last tick's payloads.
	for i := range r.nodes {
		r.nodes[i].clear()
	}
	return r.stats, r.runErr
}

// closeObs ends every span opened by Begin and publishes the run's
// stream counters, at the clock's current (post-drain) reading.
func (r *GraphRun) closeObs() {
	if r.sink == nil {
		return
	}
	now := r.clock.Now()
	for k, c := range r.conns {
		id := r.connSpans[k]
		c.mu.Lock()
		chunks, bytes := c.chunks, c.bytes
		c.mu.Unlock()
		r.sink.SpanAttr(id, "chunks", chunks)
		r.sink.SpanAttr(id, "bytes", bytes)
		r.sink.EndSpan(id, now)
	}
	for _, id := range r.actSpans {
		r.sink.EndSpan(id, now)
	}
	r.sink.SpanAttr(r.pbSpan, "ticks", int64(r.stats.Ticks))
	r.sink.EndSpan(r.pbSpan, now)
	r.sink.Count("sched.ticks", int64(r.stats.Ticks))
	r.sink.Count("stream.chunks", r.stats.Chunks)
	r.sink.Count("stream.bytes", r.stats.BytesMoved)
	r.sink.Count("stream.dropped", r.stats.ChunksDropped)
	r.sink.Count("stream.corrupted", r.stats.ChunksCorrupted)
	r.sink.Count("stream.transfer_failures", r.stats.TransferFailures)
}
