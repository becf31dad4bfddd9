package activity

// executor.go holds the parallel wavefront machinery behind Graph.Run:
// the shape of the run plan's dependency levels and the bounded worker
// pool that ticks one level's activities concurrently.
//
// The paper frames an AV database as a locus of *concurrent* activities
// (§3.1, §4.4); the wavefront executor realizes that without giving up
// the discrete-event determinism the rest of the system leans on.  Each
// scheduling interval runs level by level in three phases:
//
//	A (serial)   deliver chunks across connections, account faults,
//	             emit chunk spans, stage every node's tick inputs;
//	B (parallel) Tick the staged nodes and draw their latency samples
//	             on the worker pool;
//	C (serial)   surface the first error in topological order, stamp
//	             latency onto outputs, publish produced chunks.
//
// Everything order-sensitive — span IDs, metric updates, fault-plan RNG
// draws on links, stats accumulation — happens in the serial phases in
// exactly the order the serial executor used, so a run with N workers is
// byte-identical to a run with one.

import (
	"runtime"
	"sync"
)

// levelEnd returns where the dependency level that starts at nodes[lo]
// ends.  A level is a contiguous stretch of nodes of one depth (see
// planNodes): nodes within it share no path and may tick concurrently.
func levelEnd(nodes []planNode, lo int) int {
	hi := lo + 1
	for hi < len(nodes) && nodes[hi].depth == nodes[lo].depth {
		hi++
	}
	return hi
}

// levelShape reports how many dependency levels a plan has and how wide
// the widest one is — the graph's available parallelism.
func levelShape(nodes []planNode) (levels, width int) {
	for lo, hi := 0, 0; lo < len(nodes); lo = hi {
		hi = levelEnd(nodes, lo)
		levels++
		width = max(width, hi-lo)
	}
	return levels, width
}

// resolveWorkers applies the RunConfig.Workers defaulting rule: zero or
// negative means GOMAXPROCS, and there is never a reason to keep more
// lanes than the widest level.
func resolveWorkers(requested, width int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > width {
		w = width
	}
	if w < 1 {
		w = 1
	}
	return w
}

// tickPool is a persistent bounded worker pool.  It is built once per
// run, so the per-level cost is a channel send per entry and one
// WaitGroup cycle — no goroutine churn on the hot path.
type tickPool struct {
	jobs chan *planNode
	wg   sync.WaitGroup
}

func newTickPool(workers int) *tickPool {
	p := &tickPool{jobs: make(chan *planNode, workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for n := range p.jobs {
				n.exec()
				p.wg.Done()
			}
		}()
	}
	return p
}

// run executes the staged nodes on the pool and blocks until all
// complete.
func (p *tickPool) run(staged []*planNode) {
	p.wg.Add(len(staged))
	for _, n := range staged {
		p.jobs <- n
	}
	p.wg.Wait()
}

// close releases the pool's workers.
func (p *tickPool) close() { close(p.jobs) }
