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
//	    done, err := r.Tick()     // one step of every node, in plan order
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
	// with their tick contexts and resolved feeds (plan.go).
	nodes  []planNode
	conns  []*Connection
	latest avtime.WorldTime // latest chunk arrival so far; Finish drains the clock to it

	startAt avtime.WorldTime
	lastNow avtime.WorldTime // scheduled time of the last executed tick
	due     avtime.WorldTime // scheduled time of the next tick: startAt + DurationOf(tick)

	sink      obs.Sink
	latency   *obs.Histogram // stream.chunk_latency_us; nil without a sink
	pbSpan    obs.SpanID
	actSpans  []obs.SpanID // by node, in plan order
	connSpans []obs.SpanID // by connection, in r.conns order

	stats    *RunStats
	tick     int   // ticks executed so far
	round    int64 // storage round of the next tick; -1 (immediate mode) unless SetRound
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
	start := cfg.Clock.Now()
	r := &GraphRun{
		g:        g,
		clock:    cfg.Clock,
		rate:     rate,
		maxTicks: maxTicks,
		nodes:    nodes,
		conns:    conns,
		startAt:  start,
		due:      start,
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
		r.latency = r.sink.Histogram("stream.chunk_latency_us")
		r.pbSpan = r.sink.BeginSpan(cfg.ObsParent, obs.KindPlayback, g.name, r.startAt)
		r.actSpans = make([]obs.SpanID, len(nodes))
		for i := range nodes {
			r.actSpans[i] = r.sink.BeginSpan(r.pbSpan, obs.KindActivity, nodes[i].act.Name(), r.startAt)
		}
		r.connSpans = make([]obs.SpanID, len(conns))
		for k, c := range conns {
			r.connSpans[k] = r.sink.BeginSpan(r.pbSpan, obs.KindConnection, c.label, r.startAt)
		}
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

// Done reports whether the run has no more ticks to execute.
func (r *GraphRun) Done() bool { return r.done || r.runErr != nil || r.finished }

// NextDue returns the world time the run's next tick is scheduled for.
// A scheduler interleaving runs at different rates picks the run(s) with
// the smallest NextDue each step.
func (r *GraphRun) NextDue() avtime.WorldTime { return r.due }

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

// SetRound tags the next Tick's chunk requests with a storage service
// round.  The multi-session engine numbers rounds by engine step, so
// concurrent graphs share per-disk SCAN-EDF batches, and closes each
// round when its step ends (storage.Store.CloseRound).  A run on which
// SetRound was never called ticks in immediate mode (round -1): its
// reads neither join rounds nor stage pool ops.
func (r *GraphRun) SetRound(round int64) { r.round = round }

// Commit advances the shared clock past the last executed tick and
// refreshes Elapsed.  Single-run drivers call it after every successful
// Tick; a multi-run scheduler instead commits once per step, to the
// minimum CommitHorizon across its active runs, and Elapsed is set when
// the run stops (a tick error, or Finish's drain).
func (r *GraphRun) Commit() {
	r.clock.AdvanceTo(r.CommitHorizon())
	r.stats.Elapsed = r.clock.Now() - r.startAt
}

// Tick executes one scheduling interval on the calling goroutine: every
// node of the run plan resets its tick context and takes its step
// (planNode.step), in plan order, so each node's feeds are complete
// before it runs.  It returns done=true when the run has nothing further
// to execute — no node running, every source exhausted, or the tick bound
// reached.  Tick never advances the clock; the caller commits (Commit,
// or a scheduler-wide advance) between ticks.  After an error the run is
// terminal and Finish skips the drain.
func (r *GraphRun) Tick() (bool, error) {
	if r.finished || r.runErr != nil || r.done {
		return true, r.runErr
	}
	if r.tick >= r.maxTicks {
		r.done = true
		return true, nil
	}

	tick := r.tick
	now := r.due
	iv := avtime.Interval{Start: now, Dur: r.rate.UnitDuration()}
	anyRunning := false
	for i := range r.nodes {
		node := &r.nodes[i]
		node.tc.reset(now, tick, iv, r.round)
		ran, last, err := node.step(now, r)
		if err != nil {
			// The run stops here.  A tick never advances the clock, so
			// Elapsed covers every previously committed tick.
			r.runErr = err
			r.stats.Elapsed = r.clock.Now() - r.startAt
			return true, err
		}
		anyRunning = anyRunning || ran
		r.latest = max(r.latest, last)
	}

	r.stats.Ticks++
	r.lastNow = now
	r.tick++
	r.due = r.startAt + r.rate.DurationOf(avtime.ObjectTime(r.tick))
	if !anyRunning || sourcesDone(r.nodes) || r.tick >= r.maxTicks {
		r.done = true
	}
	return r.done, nil
}

// delivered accounts the delivery of src on feed f, arriving as in, to
// the run: the stream counters and the chunk span.
func (r *GraphRun) delivered(f *planFeed, src, in *Chunk) {
	if r.sink != nil {
		r.sink.ChunkSpan(r.connSpans[f.k], f.conn.label, src.At, in.Arrived, int64(src.Seq))
	}
	r.latency.Observe(int64(in.Arrived - in.At))
	r.stats.Chunks++
	r.stats.BytesMoved += in.Size()
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
	r.sink.Counter("sched.ticks").Add(int64(r.stats.Ticks))
	r.sink.Counter("stream.chunks").Add(r.stats.Chunks)
	r.sink.Counter("stream.bytes").Add(r.stats.BytesMoved)
}
